package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"pimnet"
	"pimnet/internal/core"
	"pimnet/internal/machine"
	"pimnet/internal/metrics"
	"pimnet/internal/noc"
	"pimnet/internal/sim"
	"pimnet/internal/sweep"
	"pimnet/internal/trace"
)

// The point pipeline. Every experiment endpoint decodes its payload into a
// batch — a list of points plus a render step — and runs it here:
//
//	coalesce -> admit -> sweep.Run (store lookup, else simulate + write-behind) -> render
//
// A lone point reads the store before admission instead, so a warm simulate
// never takes a slot.
//
// A point has one identity (point.key), which is both its flight key and its
// result-store key, and one result form (record), which the coalescer fans
// out, the store persists, and each endpoint renders into its own body. A
// simulate is the rendering of a one-point list, so coalesced twins and
// store hits still echo each caller's own request.

// batch is one decoded experiment request.
type batch struct {
	points []point
	// workers bounds the request's sweep pool (<=0 or beyond the server cap
	// selects the cap).
	workers int
	// grid marks sweep-shaped requests: their execution stats merge into the
	// process sweep aggregate, and async jobs stream per-point progress.
	grid bool
	// render turns the points' records (in point order) into the 200 body.
	render func(recs []record, stats metrics.SweepStats) response
	// fail renders the lowest-indexed deterministic point failure (nil
	// selects the 422 carrying the sweep engine's "sweep: point N" message).
	fail func(pe *PointError) response
	// delegate, when set, replaces the pipeline: a cluster coordinator runs
	// the whole list on its fleet.
	delegate func(ctx context.Context) response
}

// record is one point's deterministic result: the value the coalescer fans
// out, the one encoding the result store persists, and the input of every
// render step.
type record struct {
	// Backend and PlanKey identify a collective or workload run.
	Backend string `json:"backend,omitempty"`
	PlanKey string `json:"plan_key,omitempty"`
	// TimePs is the simulated latency: a collective's end-to-end time or a
	// NoC cell's finish time.
	TimePs    sim.Time               `json:"time_ps,omitempty"`
	Breakdown *metrics.Breakdown     `json:"breakdown,omitempty"`
	Faults    *metrics.FaultCounters `json:"faults,omitempty"`
	Degraded  *bool                  `json:"degraded,omitempty"`
	Util      *trace.Summary         `json:"util,omitempty"`
	// Report is a workload run's execution report.
	Report *machine.Report `json:"report,omitempty"`
	// Packets and MaxQueue are a NoC cell's delivered packets and deepest
	// hop queue.
	Packets  int64 `json:"packets,omitempty"`
	MaxQueue int   `json:"max_queue,omitempty"`
}

// outcome is one point's settled result: a record, a deterministic point
// failure, or — cut set — the response that ended execution before the point
// settled (shed load, deadline, cancellation, panic).
type outcome struct {
	rec record
	err error
	cut *response
}

// run executes a batch and renders its response. Synchronous handlers and
// async jobs both land here, so their bytes agree by construction.
func (s *Server) run(ctx context.Context, b *batch) response {
	if b.delegate != nil {
		return s.executeGated(ctx, b.delegate)
	}
	outs, stats := s.settle(ctx, b, true)
	if b.grid {
		s.met.mergeSweep(stats)
	}
	recs, cut, pe := collect(outs)
	switch {
	case cut != nil:
		return *cut
	case pe == nil:
		return b.render(recs, stats)
	case b.fail != nil:
		return b.fail(pe)
	}
	return errorResponse(http.StatusUnprocessableEntity, pe)
}

// collect folds outcomes in point order. A cut response wins outright (the
// run ended early, so the list is incomplete); otherwise the lowest-indexed
// point failure is the error, the sweep engine's determinism rule.
func collect(outs []outcome) ([]record, *response, *PointError) {
	recs := make([]record, len(outs))
	var pe *PointError
	for i, o := range outs {
		if o.cut != nil {
			return nil, o.cut, nil
		}
		if o.err != nil && pe == nil {
			pe = &PointError{Index: i, Err: o.err}
		}
		recs[i] = o.rec
	}
	return recs, nil, pe
}

// settle drives every point of b to an outcome. A shared run is the normal
// path: each point joins the coalescer, and the points this request leads
// resolve together in one gated slot, stored behind as they land. A lone
// point reads the result store before the gate, so a warm simulate never
// takes a slot; a grid's leaders read it inside the gated run, in parallel
// on the sweep pool and under admission control. A private run (RunChunk,
// already inside its caller's slot) skips the coalescer and the gate:
// following another request's flight from inside a held slot could wait on
// a leader queued for that very slot.
func (s *Server) settle(ctx context.Context, b *batch, shared bool) ([]outcome, metrics.SweepStats) {
	pts := b.points
	outs := make([]outcome, len(pts))
	keys := make([]string, len(pts))
	flights := make([]*flight, len(pts))
	report := progressReporter(ctx, b)
	// publish hands the settled outcome of a point this request leads to the
	// point's followers.
	publish := func(i int) {
		if flights[i] != nil {
			s.flights.finish(keys[i], flights[i], outs[i])
		}
	}

	lone := len(pts) == 1
	var pending, follows []int
	for i, pt := range pts {
		keys[i] = pt.key()
		if shared {
			f, leader := s.flights.join(keys[i])
			flights[i] = f
			if !leader {
				s.met.coalesced.Add(1)
				follows = append(follows, i)
				continue
			}
		}
		if lone {
			if rec, ok := s.storeGet(keys[i]); ok {
				if s.testHookStoreHit != nil {
					s.testHookStoreHit()
				}
				outs[i] = outcome{rec: rec}
				publish(i)
				report(i, outs[i])
				continue
			}
		}
		pending = append(pending, i)
	}

	var stats metrics.SweepStats
	if len(pending) > 0 {
		settled := make([]bool, len(pts))
		exec := func(ctx context.Context) response {
			stats = s.execute(ctx, b, keys, pending, !lone, func(i int, o outcome) {
				outs[i], settled[i] = o, true
				report(i, o)
			})
			return response{}
		}
		var resp response
		if shared {
			resp = s.executeGated(ctx, exec)
		} else {
			resp = exec(ctx)
		}
		// Flights finish only once the slot is released, so a duplicate
		// arriving meanwhile still coalesces instead of competing for a slot.
		for _, i := range pending {
			if !settled[i] {
				if resp.status == 0 {
					// The engine skipped the point on cancellation.
					resp = deadlineResponse(ctx.Err())
				}
				outs[i] = outcome{cut: &resp}
			}
			publish(i)
		}
	}

	// Followers wait only after every point this request leads has settled,
	// so two requests following each other's flights cannot deadlock.
	for _, i := range follows {
		o, err := flights[i].wait(ctx)
		if err != nil {
			resp := deadlineResponse(err)
			o = outcome{cut: &resp}
		}
		outs[i] = o
		report(i, o)
	}
	return outs, stats
}

// execute is the one point executor: it resolves the pending points on the
// sweep engine with the shared plan cache — from the result store first when
// lookup is set, else by simulation, stored behind — and hands each point to
// done as it lands. Cancellation propagates through sweep.WithContext, so an
// expired deadline stops scheduling new points promptly; skipped points
// never reach done.
func (s *Server) execute(ctx context.Context, b *batch, keys []string, pending []int, lookup bool, done func(int, outcome)) metrics.SweepStats {
	workers := b.workers
	if workers <= 0 || workers > s.cfg.MaxSweepWorkers {
		workers = s.cfg.MaxSweepWorkers
	}
	_, stats, _ := sweep.Run(pending, func(_ *sweep.Context, i int) (struct{}, error) {
		// A panicking point is a simulator bug, not a property of the point:
		// it settles as a 500 and is never stored.
		defer func() {
			if r := recover(); r != nil {
				resp := errorResponse(http.StatusInternalServerError, fmt.Errorf("internal panic: %v", r))
				done(i, outcome{cut: &resp})
			}
		}()
		if lookup {
			if rec, ok := s.storeGet(keys[i]); ok {
				done(i, outcome{rec: rec})
				return struct{}{}, nil
			}
		}
		rec, err := s.runPoint(b.points[i])
		if err == nil {
			s.storePut(keys[i], rec)
		}
		done(i, outcome{rec: rec, err: err})
		return struct{}{}, err
	}, sweep.WithWorkers(workers), sweep.WithCache(s.cache), sweep.WithContext(ctx))
	return stats
}

// runPoint executes one point. Errors from well-formed points the backend
// cannot execute (an unsupported pattern, an unrecoverable fault set) are
// deterministic point failures; everything here is a pure function of the
// point, so equal points always produce equal records.
func (s *Server) runPoint(pt point) (record, error) {
	if s.testHookRunPoint != nil {
		s.testHookRunPoint(pt)
	}
	if pt.noc != nil {
		res, err := noc.RunPatternPoint(*pt.noc)
		if err != nil {
			return record{}, err
		}
		return record{TimePs: res.Finish, Packets: res.PacketsDelivered, MaxQueue: res.MaxQueue}, nil
	}
	be, util, err := s.buildBackend(pt)
	if err != nil {
		return record{}, err
	}
	rec := record{Backend: be.Name(), PlanKey: pt.planKey().Digest()}
	if pt.workload != "" {
		wl, err := pimnet.NamedWorkload(pt.workload, pt.sys.DPUsPerChannel(), pt.seed, pt.scaled)
		if err != nil {
			return record{}, err
		}
		m, err := machine.New(pt.sys, be)
		if err != nil {
			return record{}, err
		}
		rep, err := m.Run(wl)
		if err != nil {
			return record{}, err
		}
		rec.Report = &rep
		return rec, nil
	}
	res, err := be.Collective(pt.req)
	if err != nil {
		return record{}, err
	}
	rec.TimePs, rec.Breakdown = res.Time, &res.Breakdown
	if fa, ok := be.(machine.FaultAware); ok && pt.faults != "" {
		fc, deg := fa.FaultCounters(), fa.DegradedMode()
		rec.Faults, rec.Degraded = &fc, &deg
	}
	if util != nil {
		rec.Util = util.Summary(trace.DefaultTopN)
	}
	return rec, nil
}

// buildBackend constructs the point's backend with the process-wide plan
// cache attached (only the plan-compiling backends — PIMnet and CXL-PIM —
// use it) and, when requested, a fault model and a link-utilization
// tracer. Every point builds its own backend: simulation engines are
// single-owner types, so the only state points share is the cache, whose
// entries are read-only compiled plans.
func (s *Server) buildBackend(pt point) (pimnet.Backend, *trace.Util, error) {
	opts := []pimnet.Option{pimnet.WithPlanCache(s.cache)}
	var util *trace.Util
	if pt.trace != "" {
		lvl, err := pimnet.ParseTraceLevel(pt.trace)
		if err != nil {
			return nil, nil, err
		}
		util = trace.NewUtil()
		opts = append(opts, pimnet.WithTracer(util), pimnet.WithTraceLevel(lvl))
	}
	if pt.faults != "" {
		spec, err := pimnet.ParseFaultSpec(pt.faults)
		if err != nil {
			return nil, nil, err
		}
		spec.Seed = pt.seedF
		opts = append(opts, pimnet.WithFaults(spec))
	}
	be, err := pimnet.NewBackend(pt.kind, pt.sys, opts...)
	if err != nil {
		return nil, nil, err
	}
	if pt.overhead != 0 {
		if p, ok := be.(*core.PIMnet); ok {
			p.Network().SetStepOverhead(pt.overhead)
		}
	}
	return be, util, nil
}

// progressReporter returns b's per-point progress callback: async jobs
// running a grid hear about every settled point (with the wire form of
// collective grid points); everything else gets a no-op. Calls are
// serialized, and Done is strictly monotone.
func progressReporter(ctx context.Context, b *batch) func(int, outcome) {
	fn := ProgressFromContext(ctx)
	if fn == nil || !b.grid {
		return func(int, outcome) {}
	}
	var mu sync.Mutex
	done := 0
	return func(i int, o outcome) {
		if o.cut != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		ev := ProgressEvent{Done: done, Total: len(b.points), Chunk: -1}
		if pt := b.points[i]; o.err == nil && pt.noc == nil {
			ev.Points = []SweepPoint{sweepPoint(pt, o.rec)}
		}
		fn(ev)
	}
}

// sweepPoint renders a collective point's record as a sweep/chunk grid point.
func sweepPoint(pt point, rec record) SweepPoint {
	return SweepPoint{DPUs: pt.req.Nodes, BytesPerNode: pt.req.BytesPerNode, TimePs: rec.TimePs,
		Time: rec.TimePs.String(), Breakdown: *rec.Breakdown, PlanKey: rec.PlanKey}
}

// sweepPoints renders a grid's records in point order.
func sweepPoints(pts []point, recs []record) []SweepPoint {
	out := make([]SweepPoint, len(pts))
	for i, pt := range pts {
		out[i] = sweepPoint(pt, recs[i])
	}
	return out
}
