package core

import (
	"slices"

	"pimnet/internal/backend"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// This file exposes the replay kernel and a span counter to the package's
// external tests, which compare cached results against fresh and traced
// replays.

// ReplayKernel replays p through executePhases and returns its own copy of
// the per-phase durations.
func (n *Network) ReplayKernel(p *Plan) (backend.Result, []sim.Time, error) {
	res, durs, _, err := n.executePhases(p, execOptions{})
	return res, slices.Clone(durs), err
}

// Spans is a tracer that counts a traced replay's phase starts, phase ends
// and link-busy spans.
type Spans struct{ Starts, Ends, Busy int }

// Emit implements trace.Tracer.
func (s *Spans) Emit(ev trace.Event) {
	switch ev.Kind {
	case trace.KindPhaseStart:
		s.Starts++
	case trace.KindPhaseEnd:
		s.Ends++
	case trace.KindLinkBusy:
		s.Busy++
	}
}

// Spans is what a healthy replay of p traced at trace.LevelLink emits: a
// start and an end per phase and one link-busy span per transfer.
func (p *Plan) Spans() Spans {
	s := Spans{Starts: len(p.Phases), Ends: len(p.Phases)}
	for _, ph := range p.Phases {
		for _, st := range ph.Steps {
			s.Busy += len(st.Transfers)
		}
	}
	return s
}
