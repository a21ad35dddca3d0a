package sim

import "fmt"

// Link models a point-to-point channel with a fixed bandwidth and a fixed
// propagation latency. Transfers are serialized FIFO in reservation order:
// a transfer occupies the wire for bytes/bandwidth, and its last byte lands
// latency after it left. Back-to-back transfers pipeline — the propagation
// latency of one overlaps the serialization of the next — which matches how
// both DDR buses and the PIMnet channels behave.
//
// Link is also used for half-duplex buses; callers that need direction
// semantics simply share one Link between both directions.
type Link struct {
	bwBps   float64 // bytes per second
	latency Time

	// Fault state, mutated by the fault-injection layer. degrade is a
	// bandwidth multiplier in (0, 1]; failed marks a hard failure, on which
	// reservations never complete (they return MaxTime). Fault state is
	// deliberately preserved across Reset: a broken wire stays broken when
	// an experiment re-runs.
	degrade float64
	failed  bool

	free Time // instant the wire becomes idle
}

// NewLink returns a link with the given bandwidth (bytes/second) and
// propagation latency. Links are values so a network can hold its whole
// link table in one slice; a link carries no name (its owner derives one
// from the table index when it prints one).
func NewLink(bwBytesPerSec float64, latency Time) Link {
	return Link{bwBps: bwBytesPerSec, latency: latency, degrade: 1}
}

// Degrade applies a bandwidth-degradation fault: subsequent transfers run at
// factor times the configured bandwidth. The factor must be in (0, 1].
func (l *Link) Degrade(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("sim: degrade factor %v outside (0,1]", factor))
	}
	l.degrade = factor
}

// Fail applies a hard failure: subsequent reservations never complete.
func (l *Link) Fail() { l.failed = true }

// Failed reports whether the link is hard-failed.
func (l *Link) Failed() bool { return l.failed }

// Faulty reports whether any fault (degradation or hard failure) is active.
func (l *Link) Faulty() bool { return l.failed || l.degrade != 1 }

// FreeAt returns the instant the wire next becomes idle.
func (l *Link) FreeAt() Time { return l.free }

// Reserve books a transfer of the given size requested at instant `at`.
// It returns the instant serialization starts (>= at, after queued traffic
// drains) and the instant the last byte arrives at the receiver.
func (l *Link) Reserve(at Time, bytes int64) (start, done Time) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative transfer size %d", bytes))
	}
	start = MaxOf(at, l.free)
	if l.failed {
		// A hard-failed wire never delivers: the reservation is queued but
		// completion is pushed to the "never" sentinel, which the detection
		// layer turns into a timeout.
		l.free = MaxTime
		return start, MaxTime
	}
	l.free = AddSat(start, TransferTime(bytes, l.bwBps*l.degrade))
	return start, AddSat(l.free, l.latency)
}

// Reset clears the reservations while keeping the configuration and the
// fault state, so one topology can be reused across experiment runs.
func (l *Link) Reset() { l.free = 0 }
