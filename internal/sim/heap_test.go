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
// split into lanes, heap and FIFO stay invisible to every golden trace.
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

// fillLanes claims every lane with one entry at a distinct delay, base,
// 2*base, ..., so the next push at any other delay spills to the heap.
func (d *diffRun) fillLanes(base Time) {
	for i := 1; i <= laneCount; i++ {
		d.push(Time(i) * base)
	}
}

// TestEventQueueDifferential drives the engine and the container/heap
// reference with identical (at, seq) streams, interleaving pushes and pops,
// and asserts the pop sequences match element for element.
func TestEventQueueDifferential(t *testing.T) {
	// Random streams mix the push routes: same-instant (FIFO), a few
	// recurring delays (lanes) and many distinct short and long ones (lanes
	// while one is free, the heap otherwise). Clustered instants force
	// plenty of same-instant ties, the case where only seq keeps the order
	// deterministic.
	t.Run("random", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			d := &diffRun{t: t}
			for round := 0; round < 400; round++ {
				if rng.Intn(3) < 2 || d.ref.Len() == 0 {
					var delay Time
					switch rng.Intn(4) {
					case 1:
						delay = Time(1+rng.Intn(5)) * 16
					case 2:
						delay = Time(rng.Intn(64))
					case 3:
						delay = 8*Microsecond + Time(rng.Intn(64))
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

	// Two pushes at one delay share a lane and an instant; the first pops
	// and schedules two same-instant events. The second lane entry, pushed
	// earlier, must pop before them: a queue that consults the FIFO before
	// the lane heads fails here.
	t.Run("lane-entry-due-now-precedes-fifo", func(t *testing.T) {
		d := &diffRun{t: t}
		d.push(8 * Microsecond)
		d.push(8 * Microsecond)
		if !d.pop() {
			t.Fatal("first lane entry")
		}
		d.push(0)
		d.push(0)
		if !d.drainAll() {
			t.Fatal("a lane entry due now did not precede the same-instant FIFO")
		}
	})

	// The same for the heap: with every lane claimed, two pushes at a new
	// delay go to the heap and share an instant with a FIFO entry.
	t.Run("heap-entry-due-now-precedes-fifo", func(t *testing.T) {
		d := &diffRun{t: t}
		d.fillLanes(1000)
		d.push(500)
		d.push(500)
		if len(d.e.heap) != 2 {
			t.Fatalf("heap holds %d entries, want the 2 that found no lane", len(d.e.heap))
		}
		if !d.pop() {
			t.Fatal("first heap entry")
		}
		d.push(0)
		if !d.drainAll() {
			t.Fatal("a heap entry due now did not precede the same-instant FIFO")
		}
	})

	// Periodic generators: each pop reschedules one period out (one lane)
	// beside short and same-instant churn, long enough for that lane to
	// compact its drained prefix many times.
	t.Run("periodic-generators", func(t *testing.T) {
		d := &diffRun{t: t}
		rng := rand.New(rand.NewSource(3))
		const period = 24 * Microsecond
		for i := 0; i < 200; i++ {
			d.push(8*Microsecond + Time(rng.Intn(int(period))))
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

	// More distinct delays than lanes: once all are claimed, the shortest
	// delays spill to the heap and must still interleave with the lanes'
	// later entries. A queue that appended them to a lane holding other
	// delays would pop them late.
	t.Run("spill-to-heap", func(t *testing.T) {
		d := &diffRun{t: t}
		for round := 0; round < 50; round++ {
			for k := 3 * laneCount; k > 0; k-- {
				d.push(Time(k) * 7)
			}
			for i := 0; i < 2*laneCount; i++ {
				if !d.pop() {
					t.Fatalf("round %d pop %d", round, i)
				}
			}
		}
		if len(d.e.heap) == 0 {
			t.Fatal("no push spilled to the heap")
		}
		if !d.drainAll() {
			t.Fatal("drain")
		}
	})

	// A lane drains and is reclaimed for a new delay while the others still
	// hold entries; the next new delay finds no lane and takes the heap.
	t.Run("lane-reclaimed", func(t *testing.T) {
		d := &diffRun{t: t}
		d.fillLanes(100)
		if !d.pop() { // drains the delay-100 lane
			t.Fatal("first pop")
		}
		d.push(30)
		if len(d.e.heap) != 0 {
			t.Fatal("a push at a new delay took the heap while a lane was drained")
		}
		d.push(30)
		d.push(7)
		if len(d.e.heap) != 1 {
			t.Fatalf("heap holds %d entries, want the 1 that found no lane", len(d.e.heap))
		}
		if !d.drainAll() {
			t.Fatal("drain")
		}
	})

	// Two lane heads on one instant: the lane claimed later holds the
	// smaller seq, so only seq, not lane order, picks the first. A third
	// lane pops in between, so the tied heads are compared afresh.
	t.Run("seq-decides-across-lanes", func(t *testing.T) {
		d := &diffRun{t: t}
		d.push(10) // lane 0, at 10
		d.push(20) // lane 1, at 20
		if !d.pop() {
			t.Fatal("first pop")
		}
		d.push(10) // lane 0, at 20, after lane 1's head
		d.push(5)  // lane 2, at 15
		if !d.drainAll() {
			t.Fatal("lane heads on one instant left out of seq order")
		}
	})

	// A lane entry and a heap entry on one instant, in both seq orders.
	t.Run("lane-and-heap-on-one-instant", func(t *testing.T) {
		// Heap first: the heap entry was pushed before a reclaimed lane's.
		d := &diffRun{t: t}
		d.push(10) // lane 0, at 10
		for i := 1; i < laneCount; i++ {
			d.push(Time(i) * 100)
		}
		d.push(25) // heap, at 25
		if !d.pop() {
			t.Fatal("first pop")
		}
		d.push(15) // reclaims lane 0, at 25
		if !d.drainAll() {
			t.Fatal("heap entry did not precede a later lane entry on its instant")
		}

		// Lane first: the lane entry was pushed before the heap's.
		d = &diffRun{t: t}
		d.push(25) // lane 0, at 25
		for i := 1; i < laneCount; i++ {
			d.push(Time(i) * 100)
		}
		d.push(10) // heap, at 10
		if !d.pop() {
			t.Fatal("first pop")
		}
		d.push(15) // heap, at 25
		if len(d.e.heap) != 1 {
			t.Fatalf("heap holds %d entries, want 1", len(d.e.heap))
		}
		if !d.drainAll() {
			t.Fatal("lane entry did not precede a later heap entry on its instant")
		}
	})
}

// FuzzEventQueue drives the engine and the container/heap reference with a
// byte-coded stream. A byte below 64 pops; a byte below 192 pushes at zero
// or at one of ten delays, more than there are lanes, so lanes fill and
// spill; a larger byte pushes at a raw delay taken from it and the next
// byte, which mostly spills to the heap. Both queues must pop identically
// and drain together.
func FuzzEventQueue(f *testing.F) {
	delays := [...]Time{0, 0, 1, 3, 7, 10, 13, 64, 100, 500, 4096, 8 * Microsecond}
	f.Add([]byte{64, 65, 66, 0, 67, 0, 0})
	f.Add([]byte{200, 1, 201, 7, 64, 0, 202, 9, 68, 0, 0, 0})
	f.Add([]byte{65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 0, 80, 0, 64, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &diffRun{t: t}
		for i := 0; i < len(ops); i++ {
			switch b := ops[i]; {
			case b < 64:
				if !d.pop() {
					t.Fatalf("op %d: pop mismatch", i)
				}
			case b < 192:
				d.push(delays[int(b)%len(delays)])
			case i+1 < len(ops):
				i++
				d.push(Time(b&63)<<8 | Time(ops[i]))
			}
		}
		if !d.drainAll() {
			t.Fatal("drain mismatch")
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

	// Lane steady state: a deep pending set where each pop schedules one
	// successor at one of five delays, so the lanes never drain and must
	// compact their drained prefixes in place. The initial set spills to
	// the heap; the warm-up churns drain it.
	var l Engine
	delays := [...]Time{40, 300, 1100, 2500, 9000}
	for i := 0; i < 1024; i++ {
		l.At(Time(i), 0, 0, 0)
	}
	i := 0
	churn := func() {
		for j := 0; j < 1024; j++ {
			l.Next()
			l.At(l.Now()+delays[i%len(delays)], 0, 0, 0)
			i++
		}
	}
	churn()
	churn()
	if avg := testing.AllocsPerRun(50, churn); avg != 0 {
		t.Fatalf("lane steady state allocates %.1f times per 1024 events, want 0", avg)
	}
	if len(l.heap) != 0 {
		t.Fatalf("lane steady state spilled %d entries to the heap", len(l.heap))
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
