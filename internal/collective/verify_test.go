package collective

import (
	"testing"
	"testing/quick"
)

// ringAllReduce executes reduce-scatter followed by all-gather; afterwards
// every node holds the full elementwise reduction.
func ringAllReduce(d Data, op Op) {
	RingReduceScatter(d, op)
	RingAllGather(d)
}

func TestRingAllReduceCorrect(t *testing.T) {
	for _, op := range []Op{Sum, Min, Max, Or} {
		for _, n := range []int{1, 2, 3, 4, 8, 16} {
			for _, words := range []int{1, 7, 16, 100} {
				d := NewData(n, words, int64(n*1000+words))
				want := ReduceVector(d, op)
				ringAllReduce(d, op)
				for i := 0; i < n; i++ {
					for j := 0; j < words; j++ {
						if d[i][j] != want[j] {
							t.Fatalf("op=%v n=%d words=%d: node %d word %d = %d, want %d",
								op, n, words, i, j, d[i][j], want[j])
						}
					}
				}
			}
		}
	}
}

func TestRingReduceScatterOwnedChunks(t *testing.T) {
	n, words := 8, 64
	d := NewData(n, words, 42)
	want := ReduceVector(d, Sum)
	RingReduceScatter(d, Sum)
	for i := 0; i < n; i++ {
		own := OwnedAfterRS(n, i)
		lo, hi := ChunkBounds(words, n, own)
		for j := lo; j < hi; j++ {
			if d[i][j] != want[j] {
				t.Fatalf("node %d owned chunk %d word %d = %d, want %d",
					i, own, j, d[i][j], want[j])
			}
		}
	}
}

func TestPairwiseAllToAllCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 8} {
		words := n * 6
		d := NewData(n, words, int64(n))
		orig := d.Clone()
		PairwiseAllToAll(d)
		blk := words / n
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < blk; k++ {
					if d[i][j*blk+k] != orig[j][i*blk+k] {
						t.Fatalf("n=%d: node %d slot %d word %d wrong", n, i, j, k)
					}
				}
			}
		}
	}
}

func TestSteppedA2AMatchesDirect(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16} {
		words := n * 4
		a := NewData(n, words, int64(7*n))
		b := a.Clone()
		PairwiseAllToAll(a)
		PairwiseAllToAllStepped(b)
		if !a.Equal(b) {
			t.Fatalf("n=%d: stepped all-to-all differs from direct exchange", n)
		}
	}
}

func TestA2AUndivisiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-divisible A2A payload did not panic")
		}
	}()
	d := NewData(4, 10, 1)
	PairwiseAllToAll(d)
}

func TestHierarchicalAllReduceCorrect(t *testing.T) {
	shapes := []struct{ ranks, chips, banks int }{
		{1, 1, 1},
		{1, 1, 8},
		{1, 2, 4},
		{1, 8, 8},
		{2, 2, 2},
		{4, 8, 8}, // the paper's 256-DPU channel
		{2, 4, 8},
	}
	for _, sh := range shapes {
		for _, op := range []Op{Sum, Min, Or} {
			n := sh.ranks * sh.chips * sh.banks
			words := 128
			d := NewData(n, words, int64(n+words))
			want := ReduceVector(d, op)
			if err := HierarchicalAllReduce(d, sh.ranks, sh.chips, sh.banks, op); err != nil {
				t.Fatalf("shape %+v: %v", sh, err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < words; j++ {
					if d[i][j] != want[j] {
						t.Fatalf("shape %+v op %v: node %d word %d = %d, want %d",
							sh, op, i, j, d[i][j], want[j])
					}
				}
			}
		}
	}
}

func TestHierarchicalAllReduceShapeError(t *testing.T) {
	d := NewData(7, 8, 1)
	if err := HierarchicalAllReduce(d, 2, 2, 2, Sum); err == nil {
		t.Fatal("mismatched hierarchy accepted")
	}
}

func TestOwnedShardPartition(t *testing.T) {
	// Owned shards of all (chip, bank) positions partition the vector.
	words, chips, banks := 256, 8, 8
	covered := make([]int, words)
	for c := 0; c < chips; c++ {
		for b := 0; b < banks; b++ {
			lo, hi := OwnedShard(words, chips, banks, c, b)
			for j := lo; j < hi; j++ {
				covered[j]++
			}
		}
	}
	for j, c := range covered {
		if c != 1 {
			t.Fatalf("word %d covered %d times", j, c)
		}
	}
}

func TestOwnedShardMatchesReduceScatter(t *testing.T) {
	ranks, chips, banks := 2, 4, 4
	n := ranks * chips * banks
	words := 96
	d := NewData(n, words, 99)
	want := ReduceVector(d, Sum)
	if err := HierarchicalReduceScatter(d, ranks, chips, banks, Sum); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for c := 0; c < chips; c++ {
			for b := 0; b < banks; b++ {
				id := (r*chips+c)*banks + b
				lo, hi := OwnedShard(words, chips, banks, c, b)
				for j := lo; j < hi; j++ {
					if d[id][j] != want[j] {
						t.Fatalf("node %d shard word %d = %d, want %d", id, j, d[id][j], want[j])
					}
				}
			}
		}
	}
}

func TestBroadcastGather(t *testing.T) {
	d := NewData(4, 8, 5)
	root := 2
	rootCopy := append([]int64(nil), d[root]...)
	BroadcastData(d, root)
	for i := range d {
		for j := range d[i] {
			if d[i][j] != rootCopy[j] {
				t.Fatalf("broadcast: node %d word %d wrong", i, j)
			}
		}
	}
	g := GatherData(d)
	if len(g) != 32 {
		t.Fatalf("gather length = %d, want 32", len(g))
	}
}

func TestDataCloneEqual(t *testing.T) {
	d := NewData(3, 5, 11)
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[1][2]++
	if d.Equal(c) {
		t.Fatal("mutation not detected")
	}
	if d.Equal(NewData(2, 5, 11)) {
		t.Fatal("different node counts compare equal")
	}
	if d.Equal(NewData(3, 4, 11)) {
		t.Fatal("different word counts compare equal")
	}
}

func TestNewDataDeterministic(t *testing.T) {
	a := NewData(4, 16, 7)
	b := NewData(4, 16, 7)
	if !a.Equal(b) {
		t.Fatal("same seed produced different data")
	}
	c := NewData(4, 16, 8)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical data")
	}
}

// Property: hierarchical AllReduce equals flat ring AllReduce equals direct
// reduction, for random small shapes and payloads.
func TestAllReduceEquivalenceProperty(t *testing.T) {
	f := func(seed int64, rsel, csel, bsel uint8) bool {
		ranks := int(rsel)%3 + 1
		chips := int(csel)%4 + 1
		banks := int(bsel)%4 + 1
		n := ranks * chips * banks
		words := 60
		d1 := NewData(n, words, seed)
		d2 := d1.Clone()
		want := ReduceVector(d1, Sum)
		ringAllReduce(d1, Sum)
		if err := HierarchicalAllReduce(d2, ranks, chips, banks, Sum); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < words; j++ {
				if d1[i][j] != want[j] || d2[i][j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
