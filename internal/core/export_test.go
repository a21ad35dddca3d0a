package core

import (
	"slices"

	"pimnet/internal/backend"
	"pimnet/internal/sim"
)

// This file exposes the replay kernel and the timing record to the
// package's external tests, which drive shared plans through the sweep pool.

// ReplayKernel replays p through executePhases, which neither reads nor
// writes the plan's timing record, and returns its own copy of the
// per-phase durations.
func (n *Network) ReplayKernel(p *Plan) (backend.Result, []sim.Time, error) {
	res, durs, _, err := n.executePhases(p, execOptions{})
	return res, slices.Clone(durs), err
}

// RecordedTiming returns the result the plan's timing record holds. ok is
// false while no record has been written.
func (p *Plan) RecordedTiming() (res backend.Result, ok bool) {
	rec := p.timing.Load()
	if rec == nil {
		return backend.Result{}, false
	}
	return rec.res, true
}
