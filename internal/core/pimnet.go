package core

import (
	"fmt"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/trace"
)

// PIMnet is the collective backend implemented by the paper's proposed
// interconnect: compile the request into a static schedule, verify it is
// contention-free, and execute it on the three network tiers.
type PIMnet struct {
	net *Network
	// ft is non-nil once EnableFaults has armed a fault model; it carries
	// the recovery ladder's state (see faulttol.go).
	ft *ftState
	// cache, when non-nil, shares compiled plans with other
	// backends (typically the other workers of a parallel sweep). Only the
	// healthy fast path consults it; PlanVia additionally refuses to serve
	// or learn from a non-pristine network, so fault recompilation can
	// never leak a routed-around schedule into the shared cache.
	cache *PlanCache
}

var _ backend.Backend = (*PIMnet)(nil)

// NewPIMnet builds the PIMnet backend for one memory channel of the system.
func NewPIMnet(sys config.System) (*PIMnet, error) {
	n, err := NewNetwork(sys)
	if err != nil {
		return nil, err
	}
	return &PIMnet{net: n}, nil
}

// Name implements backend.Backend.
func (p *PIMnet) Name() string { return "PIMnet" }

// Network exposes the underlying resource graph for sensitivity sweeps
// (Fig. 14) and diagnostics.
func (p *PIMnet) Network() *Network { return p.net }

// WithPlanCache attaches a shared compiled-plan cache to the backend and
// returns it (builder style). Pass nil to detach.
func (p *PIMnet) WithPlanCache(c *PlanCache) *PIMnet {
	p.cache = c
	return p
}

// SetTracer attaches a tracer to the backend's network: the executor emits
// phase/sync/mem spans (and per-transfer link occupancy at LevelLink), and
// the recovery ladder emits detection and recovery events. Pass nil to
// detach; a nil tracer restores the zero-allocation fast path.
func (p *PIMnet) SetTracer(t trace.Tracer, level trace.Level) {
	p.net.SetTracer(t, level)
}

// UtilSummary returns the link-utilization summary accumulated by an
// attached trace.Util aggregator, or nil when none is attached.
func (p *PIMnet) UtilSummary() *trace.Summary { return p.net.UtilSummary() }

// Collective implements backend.Backend. With a fault model armed the
// request runs under the detection/retry/recompilation ladder; otherwise it
// takes the healthy fast path, compiling through the attached plan cache
// when one is present.
func (p *PIMnet) Collective(req collective.Request) (backend.Result, error) {
	if p.ft != nil {
		return p.faultCollective(req)
	}
	plan, err := PlanVia(p.cache, p.net, req)
	if err != nil {
		return backend.Result{}, fmt.Errorf("pimnet: %w", err)
	}
	return p.net.Execute(plan)
}
