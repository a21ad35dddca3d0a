package sim

import (
	"fmt"
	"math/bits"
)

// Event is one scheduled occurrence: an instant, a small caller-defined
// kind and two operands. The engine never interprets Kind, A or B; its
// caller dispatches on them.
type Event struct {
	At   Time
	Kind uint8
	A, B int32
}

// kindBits is the width of the kind packed into the low bits of an entry's
// key.
const kindBits = 8

// entry is a pending event inside the queue. It is pointer-free and 24
// bytes: the GC never scans the queue's backing arrays, and a sift moves
// three words per level. key packs the schedule sequence above the kind;
// the sequence is unique per engine, so comparing keys compares sequences.
type entry struct {
	at   Time
	key  uint64 // seq<<kindBits | kind
	a, b int32
}

func (x entry) event() Event { return Event{At: x.at, Kind: uint8(x.key), A: x.a, B: x.b} }

// before is the queue's strict total order: by instant, then by schedule
// sequence. No two entries compare equal, which makes the pop order
// independent of heap shape and lets the heap arity be a pure performance
// choice.
func before(x, y entry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.key < y.key
}

// laneCount is the number of delay lanes. A packet-level model schedules
// almost every event one of a handful of fixed delays after now: the wire
// latency, the full-packet service times of its few server kinds, a
// generator's period. Engine.busy has one bit per lane, so at most 8.
const laneCount = 8

// lane is an append-only FIFO of events pushed one constant delay after
// the clock. The clock never runs backwards and seq only grows, so such a
// stream arrives already in (at, seq) order.
type lane struct {
	q    []entry
	head int
}

// pop drops the lane's front entry and reports whether the lane drained.
func (l *lane) pop() bool {
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0 // drained: rewind, keep capacity
		return true
	}
	if l.head >= 64 && l.head > len(l.q)/2 {
		// Compact the drained prefix so a lane that never drains stays
		// bounded by its live span, not the run's event total.
		n := copy(l.q, l.q[l.head:])
		l.q, l.head = l.q[:n], 0
	}
	return false
}

// Engine is a sequential discrete-event queue. It is not safe for
// concurrent use; all actors in a simulation share one engine and one
// logical timeline. The zero Engine is empty, with the clock at zero.
//
// Events leave in the strict (at, seq) order through three structures:
//
//   - lanes, laneCount FIFOs, each holding the pushes made one constant
//     delay after the clock. A push whose delay has no lane claims a
//     drained one; a lane that still holds entries never changes its
//     delay, so each stays sorted and pushes and pops in O(1). The engine
//     tracks the lane with the least head (lead), so Next compares one
//     lane head with the heap root and rescans the busy lanes only after
//     a lane pop.
//   - heap, a monomorphic 4-ary min-heap (children of i at 4i+1..4i+4)
//     for the delays that find no lane. It halves the depth of a binary
//     heap, and the four children sit on one or two cache lines.
//   - nowq, a FIFO of events scheduled for the current instant: credit
//     releases, wake-ups, zero-delay chains. Such an event has a larger
//     seq than every lane or heap entry for the same instant (those were
//     pushed while the clock was still earlier), so "lane and heap entries
//     due now, then the FIFO, then advance" is exactly the (at, seq) order.
type Engine struct {
	now    Time
	seq    uint64
	delays [laneCount]Time // lane i's delay; zero while unclaimed
	busy   uint8           // bit i is set while lane i holds entries
	lead   int             // the busy lane with the least head, if busy != 0
	first  entry           // lane lead's head, if busy != 0
	lanes  [laneCount]lane
	heap   []entry
	nowq   []entry // popped from nqHead
	nqHead int
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules an event of the given kind and operands at absolute instant
// t. Scheduling in the past panics: it always indicates a modelling bug,
// and silently reordering the timeline would corrupt every downstream
// measurement. The panic fires before the sequence counter advances, so a
// recovered panic burns no seq and cannot perturb the order of later
// same-instant events.
func (e *Engine) At(t Time, kind uint8, a, b int32) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before current time %v", t, e.now))
	}
	e.seq++
	x := entry{at: t, key: e.seq<<kindBits | uint64(kind), a: a, b: b}
	d := t - e.now
	if d == 0 {
		e.nowq = append(e.nowq, x)
		return
	}
	i := 0
	for i < laneCount && e.delays[i] != d {
		i++
	}
	if i == laneCount {
		// No lane holds d: claim a drained one, or fall back to the heap.
		if e.busy == 1<<laneCount-1 {
			heapPush(&e.heap, x)
			return
		}
		i = bits.TrailingZeros8(^e.busy)
		e.delays[i] = d
	}
	l := &e.lanes[i]
	l.q = append(l.q, x)
	if e.busy&(1<<i) == 0 {
		// x heads lane i now; it leads if it precedes the current lead.
		if e.busy == 0 || before(x, e.first) {
			e.lead, e.first = i, x
		}
		e.busy |= 1 << i
	}
}

// Next removes the earliest pending event, advances the clock to it and
// returns it. It reports false when no event is pending.
func (e *Engine) Next() (Event, bool) {
	// The (at, seq) minimum of the heap root and the lane heads comes
	// first: an entry due now precedes the FIFO, whichever structure
	// holds it.
	var x entry
	fromLane, ok := false, len(e.heap) > 0
	if ok {
		x = e.heap[0]
	}
	if e.busy != 0 && (!ok || before(e.first, x)) {
		x, fromLane, ok = e.first, true, true
	}
	if e.nqHead < len(e.nowq) && (!ok || x.at != e.now) {
		x = e.nowq[e.nqHead]
		if e.nqHead++; e.nqHead == len(e.nowq) {
			e.nowq, e.nqHead = e.nowq[:0], 0 // drained: rewind, keep capacity
		}
		return x.event(), true
	}
	if !ok {
		return Event{}, false
	}
	if fromLane {
		e.popLead()
	} else {
		heapPop(&e.heap)
	}
	e.now = x.at
	return x.event(), true
}

// popLead drops the leading lane's head and finds the new lead among the
// busy lanes' heads.
func (e *Engine) popLead() {
	if e.lanes[e.lead].pop() {
		e.busy &^= 1 << e.lead
	}
	if e.busy == 0 {
		return
	}
	m := e.busy
	lead := bits.TrailingZeros8(m)
	head := e.lanes[lead].q[e.lanes[lead].head]
	for m &= m - 1; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		if l := &e.lanes[i]; before(l.q[l.head], head) {
			lead, head = i, l.q[l.head]
		}
	}
	e.lead, e.first = lead, head
}

// QueueCap returns the combined capacity of the queue's backing arrays, in
// events. It measures the engine's footprint: a correctly recycling queue
// stays sized by its peak pending set, not by the run's event total.
func (e *Engine) QueueCap() int {
	n := cap(e.heap) + cap(e.nowq)
	for i := range e.lanes {
		n += cap(e.lanes[i].q)
	}
	return n
}

// heapPush sifts x up the 4-ary tree. The entry moves as a hole (no
// pairwise swaps): parents shift down until its slot is found.
func heapPush(h *[]entry, x entry) {
	ev := append(*h, x)
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !before(x, ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = x
	*h = ev
}

// heapPop drops the root of a non-empty heap and re-seats the tail entry
// from the root down: at each level the smallest of up to four adjacent
// children is promoted until the tail entry fits.
func heapPop(h *[]entry) {
	ev := *h
	n := len(ev) - 1
	x := ev[n]
	ev = ev[:n]
	*h = ev
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if before(ev[c], ev[m]) {
				m = c
			}
		}
		if !before(ev[m], x) {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	if n > 0 {
		ev[i] = x
	}
}
