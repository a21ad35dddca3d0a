package collective

import (
	"testing"
	"testing/quick"
)

func TestPatternStrings(t *testing.T) {
	if AllReduce.String() != "AllReduce" || AllToAll.String() != "AllToAll" {
		t.Fatal("pattern names wrong")
	}
	if Pattern(99).String() == "" {
		t.Fatal("unknown pattern has empty name")
	}
	if !Broadcast.Rooted() || AllReduce.Rooted() {
		t.Fatal("Rooted wrong")
	}
	if !AllReduce.Reduces() || AllGather.Reduces() || AllToAll.Reduces() {
		t.Fatal("Reduces wrong")
	}
}

func TestOpApply(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, w int64
	}{
		{Sum, 3, 4, 7},
		{Min, 3, 4, 3},
		{Min, 5, 2, 2},
		{Max, 3, 4, 4},
		{Or, 0b100, 0b011, 0b111},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.w {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Pattern: AllReduce, Op: Sum, BytesPerNode: 1024, ElemSize: 4, Nodes: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("good request rejected: %v", err)
	}
	if good.TotalBytes() != 8192 {
		t.Fatalf("TotalBytes = %d", good.TotalBytes())
	}
	bad := []Request{
		{Pattern: AllReduce, BytesPerNode: 1024, ElemSize: 4, Nodes: 0},
		{Pattern: AllReduce, BytesPerNode: -1, ElemSize: 4, Nodes: 8},
		{Pattern: AllReduce, BytesPerNode: 1024, ElemSize: 0, Nodes: 8},
		{Pattern: AllReduce, BytesPerNode: 1023, ElemSize: 4, Nodes: 8},
		{Pattern: Broadcast, BytesPerNode: 1024, ElemSize: 4, Nodes: 8, Root: 8},
		{Pattern: AllReduce, BytesPerNode: 1024, ElemSize: 4, Nodes: 8, Root: 3},
		{Pattern: Pattern(42), BytesPerNode: 1024, ElemSize: 4, Nodes: 8},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d accepted: %v", i, r)
		}
	}
}

func TestChunkBounds(t *testing.T) {
	// 10 words across 4 chunks: sizes 2,3,2,3 (floor split).
	sizes := []int{2, 3, 2, 3}
	covered := 0
	for i := 0; i < 4; i++ {
		lo, hi := ChunkBounds(10, 4, i)
		if lo != covered {
			t.Fatalf("chunk %d lo = %d, want %d", i, lo, covered)
		}
		if hi-lo != sizes[i] {
			t.Fatalf("chunk %d size = %d, want %d", i, hi-lo, sizes[i])
		}
		covered = hi
	}
	if covered != 10 {
		t.Fatalf("chunks cover %d words, want 10", covered)
	}
}

func TestChunkBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range chunk did not panic")
		}
	}()
	ChunkBounds(10, 4, 4)
}

// Property: chunks partition [0, words) for any words, n.
func TestChunkPartitionProperty(t *testing.T) {
	f := func(w uint16, n uint8) bool {
		words := int(w)
		parts := int(n)%64 + 1
		covered := 0
		for i := 0; i < parts; i++ {
			lo, hi := ChunkBounds(words, parts, i)
			if lo != covered || hi < lo {
				return false
			}
			covered = hi
		}
		return covered == words
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingChunkRelations(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16} {
		for i := 0; i < n; i++ {
			for s := 0; s < RingSteps(n); s++ {
				// What node i receives is what its predecessor sends.
				pred := (i + n - 1) % n
				if RingSuccessor(n, pred) != i {
					t.Fatalf("n=%d i=%d: predecessor's successor is not i", n, i)
				}
				if RSRecvChunk(n, i, s) != RSSendChunk(n, pred, s) {
					t.Fatalf("n=%d i=%d s=%d: RS recv != pred send", n, i, s)
				}
			}
			// The last chunk received and reduced is the owned chunk.
			last := RingSteps(n) - 1
			if RSRecvChunk(n, i, last) != OwnedAfterRS(n, i) {
				t.Fatalf("n=%d i=%d: last RS recv %d != owned %d",
					n, i, RSRecvChunk(n, i, last), OwnedAfterRS(n, i))
			}
			// AG starts by sending the owned chunk.
			if AGSendChunk(n, i, 0) != OwnedAfterRS(n, i) {
				t.Fatalf("n=%d i=%d: AG first send != owned", n, i)
			}
		}
	}
}

func TestRingTrafficVolumes(t *testing.T) {
	// 1024 bytes over 8 nodes: each node sends 7/8 of the payload.
	if got := RSTrafficPerNode(1024, 8); got != 896 {
		t.Fatalf("RS traffic = %d, want 896", got)
	}
	if RSTrafficPerNode(1024, 1) != 0 {
		t.Fatal("single-node RS should be free")
	}
}

func TestShiftDestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ShiftDest(8, 0, 0) }, // step 0
		func() { ShiftDest(8, 0, 8) }, // step out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestShiftDestPermutation(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		// Across all steps plus self, every node sends exactly one block to
		// every destination.
		for i := 0; i < n; i++ {
			dests := map[int]bool{i: true}
			for s := 1; s < n; s++ {
				dests[ShiftDest(n, i, s)] = true
			}
			if len(dests) != n {
				t.Fatalf("n=%d node %d does not reach all destinations", n, i)
			}
		}
		// Each step is a permutation (no two sources share a destination).
		for s := 1; s < n; s++ {
			seen := make(map[int]bool)
			for i := 0; i < n; i++ {
				d := ShiftDest(n, i, s)
				if seen[d] {
					t.Fatalf("n=%d step %d: destination collision", n, s)
				}
				seen[d] = true
			}
		}
	}
}
