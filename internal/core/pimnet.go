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
	sys config.System
	// net is built on first use: by a cache miss, by attaching a tracer, or
	// by arming a fault model. A healthy, untraced backend whose every
	// request hits the cache never builds one. Without a fault model the
	// network is pristine by construction.
	net *Network
	// ft is non-nil once EnableFaults has armed a fault model; it carries
	// the recovery ladder's state (see faulttol.go).
	ft *ftState
	// cache, when non-nil, shares the results of healthy, untraced runs
	// with other backends (typically the other workers of a parallel
	// sweep). Traced and faulted backends bypass it, so neither a traced
	// replay nor a fault recompilation ever reads or writes it.
	cache *PlanCache
}

var _ backend.Backend = (*PIMnet)(nil)

// NewPIMnet builds the PIMnet backend for one memory channel of the system.
// It validates sys now; the network itself is built when first needed.
func NewPIMnet(sys config.System) (*PIMnet, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &PIMnet{sys: sys}, nil
}

// network returns the backend's network, building it on first use.
func (p *PIMnet) network() *Network {
	if p.net == nil {
		p.net = buildNetwork(p.sys)
	}
	return p.net
}

// Name implements backend.Backend.
func (p *PIMnet) Name() string { return "PIMnet" }

// WithPlanCache attaches a shared compiled-plan cache to the backend and
// returns it (builder style). Pass nil to detach.
func (p *PIMnet) WithPlanCache(c *PlanCache) *PIMnet {
	p.cache = c
	return p
}

// SetTracer attaches a tracer to the backend's network: the executor emits
// phase/sync/mem spans (and per-transfer link occupancy at LevelLink), and
// the recovery ladder emits detection and recovery events. A traced backend
// replays every request and bypasses the plan cache. Pass nil to detach.
func (p *PIMnet) SetTracer(t trace.Tracer, level trace.Level) {
	if t == nil && p.net == nil {
		return
	}
	p.network().SetTracer(t, level)
}

// UtilSummary returns the link-utilization summary accumulated by an
// attached trace.Util aggregator, or nil when none is attached.
func (p *PIMnet) UtilSummary() *trace.Summary {
	if p.net == nil {
		return nil
	}
	return p.net.UtilSummary()
}

// Collective implements backend.Backend. With a fault model armed the
// request runs under the detection/retry/recompilation ladder. Otherwise a
// healthy, untraced request is answered from the attached plan cache, and
// only a miss compiles and replays; a traced one always replays.
func (p *PIMnet) Collective(req collective.Request) (backend.Result, error) {
	if p.ft != nil {
		return p.faultCollective(req)
	}
	if p.cache == nil || p.net != nil && p.net.tracer != nil {
		return p.replay(req)
	}
	k := KeyFor(p.sys, req)
	if res, ok := p.cache.Lookup(k); ok {
		return res, nil
	}
	res, err := p.replay(req)
	if err != nil {
		return backend.Result{}, err
	}
	p.cache.Insert(k, res)
	return res, nil
}

// replay compiles req on the backend's network and executes the plan.
func (p *PIMnet) replay(req collective.Request) (backend.Result, error) {
	n := p.network()
	plan, err := PlanFor(n, req)
	if err != nil {
		return backend.Result{}, fmt.Errorf("pimnet: %w", err)
	}
	return n.Execute(plan)
}
