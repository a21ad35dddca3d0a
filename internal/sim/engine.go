package sim

import "fmt"

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

// farDelay marks a push as long-horizon. The value sits between the wire
// and service delays of packet-level models (nanoseconds to a microsecond)
// and the periods of traffic generators (tens of microseconds and up).
const farDelay = 8 * Microsecond

// Engine is a sequential discrete-event queue. It is not safe for
// concurrent use; all actors in a simulation share one engine and one
// logical timeline. The zero Engine is empty, with the clock at zero.
//
// Events leave in the strict (at, seq) order through three structures:
//
//   - heap, a monomorphic 4-ary min-heap (children of i at 4i+1..4i+4).
//     It halves the depth of a binary heap, and the four children sit on
//     one or two cache lines.
//   - nowq, a FIFO of events scheduled for the current instant: credit
//     releases, wake-ups, zero-delay chains. Such an event has a larger
//     seq than every heap or ring entry for the same instant (those were
//     pushed while the clock was still earlier), so "heap and ring entries
//     due now, then the FIFO, then advance" is exactly the (at, seq) order.
//   - ring, a sorted run of long-horizon events. A periodic generator
//     fires in phase order and reschedules itself one period out, so each
//     such push is the latest yet: it appends in O(1) and pops from the
//     front. A long-horizon push that would break the order goes to heap,
//     which then stays tens of entries deep under a packet simulation's
//     short wire-delay churn instead of sifting through every pending tick.
type Engine struct {
	now    Time
	seq    uint64
	heap   []entry
	ring   []entry // sorted; popped from rgHead
	rgHead int
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
	switch {
	case t == e.now:
		e.nowq = append(e.nowq, x)
	// x carries the largest seq yet, so it sorts after the ring's back
	// whenever its instant is not earlier.
	case t-e.now >= farDelay && (e.rgHead == len(e.ring) || t >= e.ring[len(e.ring)-1].at):
		e.ring = append(e.ring, x)
	default:
		heapPush(&e.heap, x)
	}
}

// Next removes the earliest pending event, advances the clock to it and
// returns it. It reports false when no event is pending.
func (e *Engine) Next() (Event, bool) {
	// The (at, seq) minimum of the heap and ring heads comes first: an
	// entry due now precedes the FIFO, whichever structure holds it.
	fromRing := e.rgHead < len(e.ring) && (len(e.heap) == 0 || before(e.ring[e.rgHead], e.heap[0]))
	var x entry
	ok := true
	switch {
	case fromRing:
		x = e.ring[e.rgHead]
	case len(e.heap) > 0:
		x = e.heap[0]
	default:
		ok = false
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
	if fromRing {
		e.popRing()
	} else {
		heapPop(&e.heap)
	}
	e.now = x.at
	return x.event(), true
}

// QueueCap returns the combined capacity of the queue's backing arrays, in
// events. It measures the engine's footprint: a correctly recycling queue
// stays sized by its peak pending set, not by the run's event total.
func (e *Engine) QueueCap() int { return cap(e.heap) + cap(e.ring) + cap(e.nowq) }

// popRing drops the ring's front entry.
func (e *Engine) popRing() {
	e.rgHead++
	if e.rgHead == len(e.ring) {
		e.ring, e.rgHead = e.ring[:0], 0 // drained: rewind, keep capacity
	} else if e.rgHead >= 64 && e.rgHead > len(e.ring)/2 {
		// Compact the drained prefix so a continuously refilled ring stays
		// bounded by its live span, not the run's event total.
		n := copy(e.ring, e.ring[e.rgHead:])
		e.ring, e.rgHead = e.ring[:n], 0
	}
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
