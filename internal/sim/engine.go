package sim

import (
	"fmt"

	"pimnet/internal/trace"
)

// event is a callback scheduled for a simulated instant. seq provides stable
// FIFO ordering among events at the same instant.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// heapEntry is an event's position record inside the queue: its ordering key
// plus the index of its callback in the side arena. Deliberately pointer-free
// — the GC neither scans the heap's backing array nor interposes write
// barriers on sift moves, which is where a packet-level simulation spends
// most of its queue time.
type heapEntry struct {
	at  Time
	seq uint64
	fn  int32 // index into eventQueue.fns
}

// before is the queue's strict total order: by instant, then by schedule
// sequence. seq is unique per engine, so two distinct events never compare
// equal — which is what makes the pop order independent of heap shape and
// lets the heap arity be a pure performance choice.
func before(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a monomorphic 4-ary min-heap ordered by (at, seq).
//
// It replaces container/heap, which costs one interface boxing allocation on
// every Push *and* every Pop (the any round-trip) plus dynamic dispatch on
// each comparison — per-event garbage on the simulator's hottest path.
//
// Callbacks live in a free-listed side arena (fns/free) and the heap itself
// holds pointer-free entries: a sift that moves an entry log4(n) levels
// copies 24 pointer-free bytes per level instead of dragging a func value
// (and its GC write barrier) along. Each event touches the pointer-bearing
// arena exactly twice — once stored on push, once cleared on pop — and in
// steady state push/pop cycles reuse freed slots and allocate nothing.
//
// The 4-ary layout (children of i at 4i+1..4i+4) halves the tree depth of a
// binary heap; the four children are adjacent in memory, so the wider
// sift-down compare runs on one or two cache lines.
//
// Events scheduled for the *current* instant — wake-ups, credit releases,
// zero-delay chains — never enter a heap at all: they go to the nowq FIFO
// ring and pop in O(1). This is order-exact, not a heuristic: a same-instant
// event scheduled while the clock sits at t necessarily has a larger seq
// than every heap entry for t (those were pushed while the clock was still
// earlier), so "drain heap entries at t, then the FIFO, then advance" is
// precisely the (at, seq) order.
//
// The heap itself is two bands: events landing within farDelay of the clock
// go to near, the rest to far. Band membership is fixed at push; pop takes
// whichever head is (at, seq)-smaller, so the split never changes the order
// — it changes the constants. A packet simulation keeps thousands of
// long-horizon events pending (periodic traffic generators, release gates)
// while its hot path churns short wire-delay events; without the split every
// hot push/pop sifts through log4 of the whole pending set, with it the hot
// band stays tens of entries deep.
//
// Long-horizon events usually arrive already sorted — a periodic generator
// fires in phase order and reschedules itself one period out, so each push
// is the largest key yet. The far band exploits this: a push that is >= the
// band's back appends to a sorted ring (O(1) push, O(1) pop from the
// front); out-of-order pushes fall back to the far heap. Both far
// structures are ordered, so the pop-side three-way head compare stays
// order-exact.
type eventQueue struct {
	near   []heapEntry
	far    []heapEntry // far-band heap: out-of-order long-horizon events
	ring   []heapEntry // far-band sorted ring, popped from rgHead
	rgHead int
	fns    []func()
	free   []int32 // recycled fns slots
	nowq   []event // FIFO of events at the current instant
	nqHead int
}

// farDelay splits the bands: anything at least this far out is long-horizon.
// The value sits between the wire/service delays of packet-level models
// (nanoseconds to a microsecond) and the periods of generators and compute
// gates (tens of microseconds and up); a workload living entirely on one
// side of it degrades to the single-heap behavior, never below it.
const farDelay = 8 * Microsecond

// Sources of the earliest pending entry, for pop's three-way head compare.
const (
	srcNone = iota
	srcNear
	srcFar
	srcRing
)

func (q *eventQueue) len() int {
	return len(q.near) + len(q.far) + (len(q.ring) - q.rgHead) +
		len(q.nowq) - q.nqHead
}

// minEntry returns the earliest pending heap/ring entry and which structure
// holds it. seq uniqueness makes the cross-structure compare a total order.
func (q *eventQueue) minEntry() (heapEntry, int) {
	var be heapEntry
	src := srcNone
	if len(q.near) > 0 {
		be, src = q.near[0], srcNear
	}
	if len(q.far) > 0 && (src == srcNone || before(q.far[0], be)) {
		be, src = q.far[0], srcFar
	}
	if q.rgHead < len(q.ring) && (src == srcNone || before(q.ring[q.rgHead], be)) {
		be, src = q.ring[q.rgHead], srcRing
	}
	return be, src
}

// pushNow appends an event at the current instant to the FIFO ring.
func (q *eventQueue) pushNow(e event) { q.nowq = append(q.nowq, e) }

// push inserts e into its band. Long-horizon events that keep the far ring
// sorted append in O(1); the rest sift into their band's heap.
func (q *eventQueue) push(e event, now Time) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.fns = append(q.fns, nil)
		idx = int32(len(q.fns) - 1)
	}
	q.fns[idx] = e.fn
	he := heapEntry{at: e.at, seq: e.seq, fn: idx}
	if e.at-now >= farDelay {
		if n := len(q.ring); n == q.rgHead || !before(he, q.ring[n-1]) {
			q.ring = append(q.ring, he)
			return
		}
		heapPush(&q.far, he)
		return
	}
	heapPush(&q.near, he)
}

// heapPush sifts he up the quaternary tree. The entry is moved as a hole
// (no pairwise swaps): parents shift down until its slot is found.
func heapPush(h *[]heapEntry, he heapEntry) {
	ev := append(*h, he)
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !before(he, ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = he
	*h = ev
}

// pop removes and returns the minimum event. The caller guarantees the queue
// is non-empty. Heap/ring entries for the current instant precede the FIFO
// (they carry smaller seqs — see the type comment); the FIFO fully drains
// before the clock can advance.
func (q *eventQueue) pop(now Time) event {
	be, src := q.minEntry()
	if src == srcNone || be.at != now {
		if q.nqHead < len(q.nowq) {
			e := q.nowq[q.nqHead]
			q.nowq[q.nqHead] = event{} // release the closure to the GC
			q.nqHead++
			if q.nqHead == len(q.nowq) {
				q.nowq = q.nowq[:0] // empty: rewind, keep capacity
				q.nqHead = 0
			}
			return e
		}
	}
	switch src {
	case srcNear:
		return q.popHeap(&q.near)
	case srcFar:
		return q.popHeap(&q.far)
	default: // srcRing
		q.rgHead++
		if q.rgHead == len(q.ring) {
			q.ring = q.ring[:0] // empty: rewind, keep capacity
			q.rgHead = 0
		} else if q.rgHead >= 64 && q.rgHead > len(q.ring)/2 {
			// Compact the drained prefix so a continuously refilled ring
			// stays bounded by its live span, not the run's event total.
			n := copy(q.ring, q.ring[q.rgHead:])
			q.ring = q.ring[:n]
			q.rgHead = 0
		}
		return q.takeFn(be)
	}
}

// popHeap removes and returns the minimum event of band h.
func (q *eventQueue) popHeap(h *[]heapEntry) event {
	ev := *h
	root := ev[0]
	n := len(ev) - 1
	last := ev[n]
	*h = ev[:n]
	if n > 0 {
		siftDown(ev[:n], last)
	}
	return q.takeFn(root)
}

// takeFn redeems a popped entry: the callback's arena slot is cleared —
// releasing the closure to the GC — and recycled through the free list.
func (q *eventQueue) takeFn(he heapEntry) event {
	fn := q.fns[he.fn]
	q.fns[he.fn] = nil
	q.free = append(q.free, he.fn)
	return event{at: he.at, seq: he.seq, fn: fn}
}

// siftDown re-seats e (displaced from the tail) starting at the root: at
// each level the smallest of up to four adjacent children is promoted until
// e fits.
func siftDown(ev []heapEntry, e heapEntry) {
	n := len(ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(ev[c], ev[m]) {
				m = c
			}
		}
		if !before(ev[m], e) {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	ev[i] = e
}

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use; all actors in a simulation share one engine and one
// logical timeline.
type Engine struct {
	now    Time
	q      eventQueue
	seq    uint64
	tracer trace.Tracer
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute instant t. Scheduling in the past
// panics: it always indicates a modelling bug, and silently reordering the
// timeline would corrupt every downstream measurement. The panic check runs
// before the sequence counter advances, so a recovered panic burns no seq
// and cannot perturb the FIFO ordering of subsequent same-instant events.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before current time %v", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.q.pushNow(event{at: t, seq: e.seq, fn: fn})
		return
	}
	e.q.push(event{at: t, seq: e.seq, fn: fn}, e.now)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// SetTracer attaches an execution tracer: every dispatched event emits one
// trace.KindEngineStep record. This is the finest (and most voluminous)
// observation level, intended for debugging packet-level simulations; pass
// nil to detach. A nil tracer costs one predictable branch per step and
// zero allocations — the contract the Engine benchmarks gate.
func (e *Engine) SetTracer(t trace.Tracer) { e.tracer = t }

// Step runs the earliest pending event, advancing the clock. It reports
// whether an event was run.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	ev := e.q.pop(e.now)
	e.now = ev.at
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{Kind: trace.KindEngineStep, Tier: trace.TierNone,
			Start: int64(ev.at), End: int64(ev.at), From: -1, To: -1, Seq: int64(ev.seq)})
	}
	ev.fn()
	return true
}

// Run executes events until none remain and returns the final simulated
// time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}
