package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// refHeap is the reference implementation the monomorphic queue replaced: a
// binary min-heap driven through container/heap with the same (at, seq)
// order. The differential tests below feed both structures identical event
// streams and demand identical pop order — the contract that makes the heap
// swap invisible to every golden trace.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// TestEventQueueDifferential drives the 4-ary queue and the container/heap
// reference with identical (at, seq) streams, interleaving pushes and pops,
// and asserts the pop sequences match element for element.
func TestEventQueueDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref refHeap
		seq := uint64(0)
		for round := 0; round < 400; round++ {
			if rng.Intn(3) < 2 || ref.Len() == 0 {
				// Clustered instants force plenty of same-instant ties, the
				// case where only seq keeps the order deterministic.
				at := Time(rng.Intn(64))
				seq++
				e := event{at: at, seq: seq}
				q.push(e, -1)
				heap.Push(&ref, e)
			} else {
				got := q.pop(-1)
				want := heap.Pop(&ref).(event)
				if got.at != want.at || got.seq != want.seq {
					t.Logf("seed %d: pop mismatch got (%v,%d) want (%v,%d)",
						seed, got.at, got.seq, want.at, want.seq)
					return false
				}
			}
		}
		for ref.Len() > 0 {
			got := q.pop(-1)
			want := heap.Pop(&ref).(event)
			if got.at != want.at || got.seq != want.seq {
				return false
			}
		}
		return q.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEventQueueDrainSorted pushes a batch and drains it fully: the pop
// order must be the exact (at, seq) sort, and every drained slot must have
// released its callback to the GC (free-list hygiene).
func TestEventQueueDrainSorted(t *testing.T) {
	var q eventQueue
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	for i := 1; i <= n; i++ {
		q.push(event{at: Time(rng.Intn(50)), seq: uint64(i), fn: func() {}}, -1)
	}
	var prev event
	for i := 0; i < n; i++ {
		e := q.pop(-1)
		if i > 0 && !(prev.at < e.at || (prev.at == e.at && prev.seq < e.seq)) {
			t.Fatalf("pop %d: (%v,%d) not after (%v,%d)", i, e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
	for i, fn := range q.fns {
		if fn != nil {
			t.Fatalf("drained arena slot %d still pins its callback", i)
		}
	}
}

// TestEngineAtPanicDoesNotBurnSeq locks the satellite fix: a recovered
// past-scheduling panic must not consume a sequence number, so the FIFO
// order of events scheduled after the recovery is exactly as if the bad
// call never happened.
func TestEngineAtPanicDoesNotBurnSeq(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(100, func() {
		e.At(200, func() { order = append(order, 1) })
		func() {
			defer func() {
				if recover() == nil {
					t.Error("past scheduling did not panic")
				}
			}()
			e.At(50, func() { order = append(order, -1) })
		}()
		before := e.seq
		e.At(200, func() { order = append(order, 2) })
		if e.seq != before+1 {
			t.Errorf("recovered panic burned a seq: %d -> %d", before, e.seq)
		}
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-recovery order = %v, want [1 2]", order)
	}
	if n := e.q.len(); n != 0 {
		t.Fatalf("panicked schedule left %d events queued", n)
	}
}

// TestEngineSteadyStateZeroAllocs is the allocation contract behind
// BENCH_baseline.json: once the queue's backing array has grown to the
// workload's high-water mark, full schedule/run cycles allocate nothing.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	cycle := func() {
		for i := 0; i < 512; i++ {
			e.At(Time((i*37)%1000), fn)
		}
		e.Run()
		e.now = 0
	}
	cycle() // warm-up: grow the backing array once
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("steady-state schedule/run cycle allocates %.1f times, want 0", avg)
	}
}

// TestEngineSameInstantBurstZeroAllocs covers the tie-break path: bursts of
// same-instant events stress sift-up's equal-at comparisons and must stay
// allocation-free too.
func TestEngineSameInstantBurstZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	cycle := func() {
		for i := 0; i < 512; i++ {
			e.At(42, fn)
		}
		e.Run()
		e.now = 0
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("same-instant burst cycle allocates %.1f times, want 0", avg)
	}
}
