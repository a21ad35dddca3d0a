package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// refEntry and refHeap are the reference the engine's queue must match: a
// binary min-heap driven through container/heap in the same (at, seq)
// order. The differential tests feed both identical event streams and
// demand identical pop order — the contract that lets the queue's internal
// split into heap, ring and FIFO stay invisible to every golden trace.
type refEntry struct {
	at  Time
	seq uint64
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// diffRun drives an Engine and the reference side by side. Every event
// carries its schedule sequence in A and Kind (and -A in B), so a pop
// identifies exactly which event left.
type diffRun struct {
	t   *testing.T
	e   Engine
	ref refHeap
	seq uint64
}

// push schedules one event delay after the engine's clock on both queues.
func (d *diffRun) push(delay Time) {
	d.seq++
	at := d.e.Now() + delay
	d.e.At(at, uint8(d.seq), int32(d.seq), -int32(d.seq))
	heap.Push(&d.ref, refEntry{at: at, seq: d.seq})
}

// pop takes the next event from both queues and reports whether they agree.
func (d *diffRun) pop() bool {
	ev, ok := d.e.Next()
	if d.ref.Len() == 0 {
		if ok {
			d.t.Logf("engine popped %+v from an empty queue", ev)
		}
		return !ok
	}
	want := heap.Pop(&d.ref).(refEntry)
	if !ok || ev.At != want.at || ev.A != int32(want.seq) || ev.Kind != uint8(want.seq) ||
		ev.B != -ev.A || d.e.Now() != want.at {
		d.t.Logf("pop mismatch: got %+v (ok %v, now %v), want (%v, seq %d)",
			ev, ok, d.e.Now(), want.at, want.seq)
		return false
	}
	return true
}

// drainAll pops both queues dry and reports whether they agreed throughout.
func (d *diffRun) drainAll() bool {
	for d.ref.Len() > 0 {
		if !d.pop() {
			return false
		}
	}
	return d.pop()
}

// TestEventQueueDifferential drives the engine and the container/heap
// reference with identical (at, seq) streams, interleaving pushes and pops,
// and asserts the pop sequences match element for element.
func TestEventQueueDifferential(t *testing.T) {
	// Random streams mix the three push routes: same-instant (FIFO), short
	// delays (heap) and long horizons (ring when in order, heap when not).
	// Clustered instants force plenty of same-instant ties, the case where
	// only seq keeps the order deterministic.
	t.Run("random", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			d := &diffRun{t: t}
			for round := 0; round < 400; round++ {
				if rng.Intn(3) < 2 || d.ref.Len() == 0 {
					var delay Time
					switch rng.Intn(4) {
					case 1:
						delay = Time(rng.Intn(64))
					case 2:
						delay = farDelay + Time(rng.Intn(4))
					case 3:
						delay = farDelay + Time(rng.Intn(64))
					}
					d.push(delay)
				} else if !d.pop() {
					return false
				}
			}
			return d.drainAll()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})

	// Two in-order long-horizon pushes land on one instant; the first pops
	// and schedules a same-instant event. The second, pushed earlier, must
	// pop before it: a queue that consults the FIFO before the ring's head
	// fails here.
	t.Run("ring-entry-due-now-precedes-fifo", func(t *testing.T) {
		d := &diffRun{t: t}
		d.push(farDelay)
		d.push(farDelay)
		if !d.pop() {
			t.Fatal("first ring entry")
		}
		d.push(0)
		d.push(0)
		if !d.drainAll() {
			t.Fatal("a ring entry due now did not precede the same-instant FIFO")
		}
	})

	// The same for the heap: an out-of-order long-horizon push and a short
	// push share an instant with FIFO entries.
	t.Run("heap-entry-due-now-precedes-fifo", func(t *testing.T) {
		d := &diffRun{t: t}
		d.push(farDelay + 10) // ring
		d.push(farDelay)      // out of order: heap
		d.push(farDelay)      // heap
		if !d.pop() {
			t.Fatal("first heap entry")
		}
		d.push(0)
		if !d.drainAll() {
			t.Fatal("a heap entry due now did not precede the same-instant FIFO")
		}
	})

	// Periodic generators: each pop reschedules one period out (an in-order
	// ring push) beside short and same-instant churn, long enough for the
	// ring to compact its drained prefix many times.
	t.Run("periodic-generators", func(t *testing.T) {
		d := &diffRun{t: t}
		rng := rand.New(rand.NewSource(3))
		const period = 3 * farDelay
		for i := 0; i < 200; i++ {
			d.push(farDelay + Time(rng.Intn(int(period))))
		}
		for i := 0; i < 5000; i++ {
			if !d.pop() {
				t.Fatalf("pop %d", i)
			}
			d.push(period)
			switch rng.Intn(3) {
			case 0:
				d.push(0)
			case 1:
				d.push(Time(rng.Intn(100)))
			}
		}
		if !d.drainAll() {
			t.Fatal("drain")
		}
	})
}

// TestEntryIsThreeWords pins the queue entry at 24 bytes: every sift level
// moves one entry, so its size sits on the packet simulator's hot path.
func TestEntryIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Fatalf("queue entry is %d bytes, want 24", got)
	}
}

// TestEventQueueDrainSorted pushes a batch across short and long horizons
// and drains it fully: the pop order must be the exact (at, seq) sort and
// the queue must end empty.
func TestEventQueueDrainSorted(t *testing.T) {
	var e Engine
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	for i := int32(1); i <= n; i++ {
		e.At(Time(rng.Intn(50))*Microsecond/4, 0, i, 0)
	}
	var prev Event
	popped := 0
	drain(&e, func(ev Event) {
		if popped > 0 && !(prev.At < ev.At || (prev.At == ev.At && prev.A < ev.A)) {
			t.Fatalf("pop %d: %+v not after %+v", popped, ev, prev)
		}
		prev = ev
		popped++
	})
	if popped != n {
		t.Fatalf("drained %d events, want %d", popped, n)
	}
	if _, ok := e.Next(); ok {
		t.Fatal("queue not drained")
	}
}

// TestEngineAtPanicDoesNotBurnSeq: a recovered past-scheduling panic must
// not consume a sequence number, so the FIFO order of events scheduled
// after the recovery is exactly as if the bad call never happened.
func TestEngineAtPanicDoesNotBurnSeq(t *testing.T) {
	var e Engine
	var order []int32
	e.At(100, 0, 0, 0)
	drain(&e, func(ev Event) {
		if ev.A != 0 {
			order = append(order, ev.A)
			return
		}
		e.At(200, 0, 1, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("past scheduling did not panic")
				}
			}()
			e.At(50, 0, -1, 0)
		}()
		before := e.seq
		e.At(200, 0, 2, 0)
		if e.seq != before+1 {
			t.Errorf("recovered panic burned a seq: %d -> %d", before, e.seq)
		}
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-recovery order = %v, want [1 2]", order)
	}
}

// TestEngineSteadyStateZeroAllocs is the allocation contract behind
// BENCH_baseline.json: once the queue's backing arrays have grown to the
// workload's high-water mark, full schedule/drain cycles allocate nothing.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	var e Engine
	cycle := func() {
		for i := 0; i < 512; i++ {
			e.At(Time((i*37)%1000)*Microsecond/64, 0, int32(i), 0)
		}
		drain(&e, func(Event) {})
		e.now = 0
	}
	cycle() // warm-up: grow the backing arrays once
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("steady-state schedule/drain cycle allocates %.1f times, want 0", avg)
	}
}

// TestEngineSameInstantBurstZeroAllocs covers the tie-break path: bursts of
// same-instant events, including ones scheduled at the current instant
// while the burst drains, must stay allocation-free too.
func TestEngineSameInstantBurstZeroAllocs(t *testing.T) {
	var e Engine
	cycle := func() {
		for i := 0; i < 512; i++ {
			e.At(42, 0, 0, 0)
		}
		drain(&e, func(ev Event) {
			if ev.Kind == 0 {
				e.At(e.Now(), 1, 0, 0)
			}
		})
		e.now = 0
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("same-instant burst cycle allocates %.1f times, want 0", avg)
	}
}
