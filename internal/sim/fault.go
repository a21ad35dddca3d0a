package sim

import "sort"

// Activation is one timed fault-state mutation: at instant At, Apply runs
// (for example failing or degrading a Link). Activations are the engine-level
// half of fault injection — they let faults arrive mid-simulation instead of
// only at t=0.
type Activation struct {
	At    Time
	Apply func()
}

// Schedule is an ordered set of fault activations. Activations fire in
// (At, insertion) order, mirroring the event engine's deterministic FIFO
// tie-break, so two runs with the same schedule mutate state identically.
// The zero value is an empty schedule ready for use.
type Schedule struct {
	acts   []Activation
	next   int
	sorted bool
}

// Add appends an activation. Negative instants are clamped to zero (an
// "already active at start" fault).
func (s *Schedule) Add(at Time, apply func()) {
	if at < 0 {
		at = 0
	}
	s.acts = append(s.acts, Activation{At: at, Apply: apply})
	s.sorted = false
}

// ApplyUpTo fires, in order, every pending activation with At <= now, and
// returns how many fired. Activations fire at most once; Rewind re-arms them.
func (s *Schedule) ApplyUpTo(now Time) int {
	s.sortOnce()
	fired := 0
	for s.next < len(s.acts) && s.acts[s.next].At <= now {
		s.acts[s.next].Apply()
		s.next++
		fired++
	}
	return fired
}

// Rewind re-arms every activation so the schedule can replay. It does not
// undo the state mutations already applied; callers that need a pristine
// system must restore it themselves.
func (s *Schedule) Rewind() { s.next = 0 }

func (s *Schedule) sortOnce() {
	if s.sorted {
		return
	}
	sort.SliceStable(s.acts, func(i, j int) bool { return s.acts[i].At < s.acts[j].At })
	s.sorted = true
}
