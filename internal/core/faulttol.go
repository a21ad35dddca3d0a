package core

import (
	"fmt"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/faults"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// This file implements PIMnet's recovery ladder. The static schedule that
// makes PIMnet fast is also what makes it fragile: a single slow or dead
// resource silently invalidates every compiled timing offset, and there are
// no buffers or NACKs to absorb the difference. Recovery therefore climbs
// three rungs, each strictly more expensive than the last:
//
//  1. detection — every phase has a compiled completion bound (its healthy
//     duration plus slack); the READY/START tree doubles as a watchdog that
//     flags any phase overrunning its bound;
//  2. retry — transient payload corruption and lost launches are re-executed
//     with exponential backoff, validated against the data-level
//     interpreter in internal/collective;
//  3. recompilation / degradation — hard failures trigger a host-side
//     recompile that routes around the dead resource (reordered inter-chip
//     ring, long-way-around bank ring); if the topology is disconnected for
//     the pattern, the collective falls back to the host-relay baseline.

const (
	// detectSlackDiv sets the timeout guard band: a phase may run 1/4 over
	// its compiled healthy duration before the watchdog declares it failed.
	detectSlackDiv = 4
	// detectSlackMin keeps bounds on near-zero phases meaningful.
	detectSlackMin = 100 * sim.Nanosecond
	// retryBackoffBase is the first retry's backoff; attempt k waits
	// retryBackoffBase << k.
	retryBackoffBase = 1 * sim.Microsecond
	// maxRetries bounds rung 2 before the ladder degrades to the fallback.
	maxRetries = 4
	// verifyWordCap bounds the payload the data-level interpreter checks;
	// correctness of the routing is independent of vector length.
	verifyWordCap = 1 << 12
)

// ftState carries the armed fault model and the recovery ladder's
// bookkeeping for one PIMnet backend.
type ftState struct {
	model       *faults.Model
	sched       *sim.Schedule
	fallback    backend.Backend
	counters    metrics.FaultCounters
	invocations int
	degraded    bool
	// dplans caches recompiled plans per request: the host keeps the
	// routed-around schedule, so later invocations skip detection entirely.
	dplans map[collective.Request]*Plan
	// softAccepted records that a slow-but-connected network was accepted;
	// later invocations run without the watchdog instead of re-detecting.
	softAccepted bool
}

// EnableFaults arms the backend with a fault model. Static faults (At == 0)
// are realized into the network immediately; timed faults are queued on an
// engine-level schedule that fires at step-release instants. fallback
// (usually the host-relay baseline) is consulted when recompilation cannot
// reconnect the topology for a pattern; nil makes such failures hard errors.
func (p *PIMnet) EnableFaults(m *faults.Model, fallback backend.Backend) error {
	if m == nil {
		return fmt.Errorf("pimnet: nil fault model")
	}
	ft := &ftState{model: m, sched: &sim.Schedule{}, fallback: fallback,
		dplans: make(map[collective.Request]*Plan)}
	for _, f := range m.Faults {
		switch f.Class {
		case faults.Straggler, faults.TransientCorrupt, faults.SyncDrop:
			continue // carried by the model, not by network state
		}
		if f.At <= 0 {
			if err := p.net.ApplyFault(f); err != nil {
				return err
			}
			continue
		}
		// Validate the site now so a bad timed fault fails at arm time, not
		// silently mid-run; the activation itself cannot fail afterwards.
		if _, err := p.net.faultLink(f); err != nil && f.Site != faults.SiteChipPath {
			return err
		}
		f := f
		ft.sched.Add(f.At, func() { _ = p.net.ApplyFault(f) })
	}
	ft.counters.Injected = uint64(len(m.Faults))
	p.ft = ft
	return nil
}

// FaultCounters returns the cumulative recovery-ladder counters (zero when
// no fault model is armed).
func (p *PIMnet) FaultCounters() metrics.FaultCounters {
	if p.ft == nil {
		return metrics.FaultCounters{}
	}
	return p.ft.counters
}

// DegradedMode reports whether any collective has completed in degraded
// mode: on a recompiled route, on an accepted slow run, or via the fallback.
func (p *PIMnet) DegradedMode() bool { return p.ft != nil && p.ft.degraded }

// ComputeSlowdown returns the straggler compute-slowdown factor (1 when no
// model is armed or no straggler was injected). The machine applies it to
// workload kernels: a lock-step fleet computes at the slowest DPU's pace.
func (p *PIMnet) ComputeSlowdown() float64 {
	if p.ft == nil {
		return 1
	}
	return p.ft.model.StragglerScale()
}

// FaultModel returns the armed model (nil when faults are disabled).
func (p *PIMnet) FaultModel() *faults.Model {
	if p.ft == nil {
		return nil
	}
	return p.ft.model
}

// compiledBounds executes the request on a pristine twin of the network and
// converts each phase's healthy duration into an abort deadline. The static
// compiler knows exactly when every phase must finish on healthy hardware —
// that knowledge is the detection signal.
func (p *PIMnet) compiledBounds(req collective.Request) ([]sim.Time, error) {
	twin, err := NewNetwork(p.net.Sys)
	if err != nil {
		return nil, err
	}
	// Keep ablation knobs in sync so the twin's timing matches the real plan.
	twin.stepOverheadPs = p.net.stepOverheadPs
	plan, err := PlanFor(twin, req)
	if err != nil {
		return nil, err
	}
	_, durs, _, err := twin.executePhases(plan, execOptions{})
	if err != nil {
		return nil, err
	}
	bounds := make([]sim.Time, len(durs))
	for i, d := range durs {
		bounds[i] = d + d/detectSlackDiv + detectSlackMin
	}
	return bounds, nil
}

// syncWatchdogTimeout is how long the root waits for the READY wave of a
// launch before declaring the START lost and re-launching.
func (n *Network) syncWatchdogTimeout() sim.Time {
	return 2*n.SyncLatency() + detectSlackMin
}

// faultCollective runs one collective under the recovery ladder.
func (p *PIMnet) faultCollective(req collective.Request) (backend.Result, error) {
	ft := p.ft
	inv := ft.invocations
	ft.invocations++

	var total sim.Time
	var bd metrics.Breakdown

	// Rung 0/2: a dropped READY/START launch trips the root's watchdog;
	// re-launch with backoff.
	for launch := 0; ft.model.SyncDropAttempt(inv, launch); launch++ {
		if launch >= maxRetries {
			return backend.Result{}, fmt.Errorf("pimnet: READY/START launch lost %d times for %v %s",
				launch+1, req.Pattern, fmtBytes(req.BytesPerNode))
		}
		ft.counters.Detected++
		ft.counters.Retried++
		wait := p.net.syncWatchdogTimeout() + retryBackoffBase<<launch
		if t := p.net.tracer; t != nil {
			t.Emit(trace.Event{Kind: trace.KindFaultDetected, Tier: trace.TierNone,
				Name: "READY/START launch lost", Start: int64(total), End: int64(total), From: -1, To: -1})
			t.Emit(trace.Event{Kind: trace.KindRetry, Tier: trace.TierNone,
				Name: "re-launch backoff", Start: int64(total), End: int64(total + wait),
				From: -1, To: -1, Seq: int64(launch)})
		}
		total += wait
		bd.Add(metrics.Recovery, wait)
	}

	opt := execOptions{sched: ft.sched, stragglerScale: ft.model.StragglerScale()}
	ft.sched.Rewind()

	// A previous invocation already recompiled around the hard faults for
	// this request: the host kept the plan, so run it committed.
	if dplan, ok := ft.dplans[req]; ok {
		opt.traceBase = total
		res, _, _, err := p.net.executePhases(dplan, opt)
		if err != nil {
			return backend.Result{}, fmt.Errorf("pimnet: cached recompiled plan: %w", err)
		}
		total += res.Time
		bd.Merge(res.Breakdown)
		return backend.Result{Time: total, Breakdown: bd}, nil
	}

	plan, err := PlanFor(p.net, req)
	if err != nil {
		return backend.Result{}, fmt.Errorf("pimnet: %w", err)
	}
	if !ft.softAccepted {
		bounds, err := p.compiledBounds(req)
		if err != nil {
			return backend.Result{}, fmt.Errorf("pimnet: compiled bounds: %w", err)
		}
		opt.bounds = bounds
	}
	for attempt := 0; ; attempt++ {
		opt.traceBase = total
		res, _, abortedAt, err := p.net.executePhases(plan, opt)
		if err != nil {
			return backend.Result{}, fmt.Errorf("pimnet: %w", err)
		}
		if abortedAt >= 0 {
			// Rung 1 fired: phase abortedAt overran its compiled bound. The
			// burned attempt is pure recovery time.
			ft.counters.Detected++
			total += res.Time
			bd.Add(metrics.Recovery, res.Time)
			if t := p.net.tracer; t != nil {
				t.Emit(trace.Event{Kind: trace.KindFaultDetected, Tier: trace.TierNone,
					Name: "phase overran compiled bound", Start: int64(total), End: int64(total),
					From: -1, To: -1, Seq: int64(abortedAt)})
			}
			return p.recoverHard(req, inv, plan, opt, total, bd)
		}
		// Rung 2: transient corruption is invisible to timing; the
		// receiver-side integrity check catches it at completion, and the
		// whole attempt's time is wasted.
		if ft.model.CorruptAttempt(inv, attempt) {
			ft.counters.Detected++
			if attempt >= maxRetries {
				return p.degradeToFallback(req, total, bd, res.Time,
					fmt.Errorf("payload corrupt after %d attempts", attempt+1))
			}
			ft.counters.Retried++
			waste := res.Time + retryBackoffBase<<attempt
			if t := p.net.tracer; t != nil {
				t.Emit(trace.Event{Kind: trace.KindFaultDetected, Tier: trace.TierNone,
					Name: "payload corrupt", Start: int64(total + res.Time), End: int64(total + res.Time),
					From: -1, To: -1})
				t.Emit(trace.Event{Kind: trace.KindRetry, Tier: trace.TierNone,
					Name: "corrupt-retry backoff", Start: int64(total + res.Time),
					End: int64(total + waste), From: -1, To: -1, Seq: int64(attempt)})
			}
			total += waste
			bd.Add(metrics.Recovery, waste)
			continue
		}
		if attempt > 0 {
			// A retry delivered: prove the re-executed schedule still moves
			// the right bytes by replaying it in the data-level interpreter.
			if err := p.verifyRecovered(req, inv); err != nil {
				return backend.Result{}, err
			}
		}
		total += res.Time
		bd.Merge(res.Breakdown)
		return backend.Result{Time: total, Breakdown: bd}, nil
	}
}

// recoverHard is rung 3 after a timeout detection: decide between accepting
// a slow-but-connected network, recompiling around hard failures, and
// falling back to the host relay.
func (p *PIMnet) recoverHard(req collective.Request, inv int, plan *Plan,
	opt execOptions, total sim.Time, bd metrics.Breakdown) (backend.Result, error) {
	ft := p.ft
	if !p.net.hasHardFaults() {
		// Slow but connected (degraded links, stragglers beyond the guard
		// band): every byte still arrives, so accept degraded timing and
		// re-run committed, without the watchdog.
		ft.counters.Degraded++
		ft.degraded = true
		ft.softAccepted = true
		opt.bounds = nil
		opt.traceBase = total
		res, _, _, err := p.net.executePhases(plan, opt)
		if err != nil {
			return backend.Result{}, fmt.Errorf("pimnet: degraded re-run: %w", err)
		}
		total += res.Time
		bd.Merge(res.Breakdown)
		return backend.Result{Time: total, Breakdown: bd}, nil
	}

	// Hard failure: the host recompiles a plan that routes around the dead
	// resource and re-uploads it — one launch plus one sync tree traversal.
	recompile := p.net.Sys.Host.LaunchOverhead + p.net.SyncLatency()
	dplan, err := PlanForDegraded(p.net, req)
	if err != nil {
		return p.degradeToFallback(req, total, bd, recompile, err)
	}
	ft.counters.Recompiled++
	ft.degraded = true
	ft.dplans[req] = dplan
	if t := p.net.tracer; t != nil {
		t.Emit(trace.Event{Kind: trace.KindReroute, Tier: trace.TierNone,
			Name: "recompile route-around", Start: int64(total), End: int64(total + recompile),
			From: -1, To: -1})
	}
	total += recompile
	bd.Add(metrics.Recovery, recompile)
	opt.bounds = nil
	opt.traceBase = total
	res, _, _, err := p.net.executePhases(dplan, opt)
	if err != nil {
		return backend.Result{}, fmt.Errorf("pimnet: recompiled plan: %w", err)
	}
	if err := p.verifyRecovered(req, inv); err != nil {
		return backend.Result{}, err
	}
	total += res.Time
	bd.Merge(res.Breakdown)
	return backend.Result{Time: total, Breakdown: bd}, nil
}

// degradeToFallback gives up on PIMnet delivery for this invocation and
// relays the collective through the host. waste is recovery time burned by
// the caller but not yet charged to the breakdown.
func (p *PIMnet) degradeToFallback(req collective.Request, total sim.Time,
	bd metrics.Breakdown, waste sim.Time, cause error) (backend.Result, error) {
	ft := p.ft
	if ft.fallback == nil {
		return backend.Result{}, fmt.Errorf("pimnet: unrecoverable fault (%v) and no fallback backend", cause)
	}
	ft.counters.Degraded++
	ft.degraded = true
	total += waste
	bd.Add(metrics.Recovery, waste)
	if t := p.net.tracer; t != nil {
		t.Emit(trace.Event{Kind: trace.KindFallback, Tier: trace.TierNone,
			Name: "host-relay fallback", Start: int64(total), End: int64(total), From: -1, To: -1})
	}
	res, err := ft.fallback.Collective(req)
	if err != nil {
		return backend.Result{}, fmt.Errorf("pimnet: fallback after %v: %w", cause, err)
	}
	bd.Merge(res.Breakdown)
	return backend.Result{Time: total + res.Time, Breakdown: bd}, nil
}

// verifyRecovered replays the pattern through the data-level interpreter to
// prove the recovered schedule is bit-correct. Payload size is capped: the
// routing, not the vector length, is what recovery may have changed.
func (p *PIMnet) verifyRecovered(req collective.Request, inv int) error {
	t := p.net.Topo
	vreq := req
	if vreq.ElemSize <= 0 {
		vreq.ElemSize = 4
	}
	if vreq.BytesPerNode > verifyWordCap*int64(vreq.ElemSize) {
		vreq.BytesPerNode = verifyWordCap * int64(vreq.ElemSize)
	}
	seed := p.ft.model.Spec.Seed ^ int64(inv)*0x9E3779B9
	if err := collective.Verify(vreq, t.Ranks, t.Chips, t.Banks, seed); err != nil {
		return fmt.Errorf("pimnet: recovered collective failed data verification: %w", err)
	}
	return nil
}

// PlanForDegraded recompiles a request around the network's hard faults: a
// reordered inter-chip ring excludes stuck crossbar pairings, and failed
// bank-ring segments are rerouted the long way around their ring. It errors
// when the topology is disconnected for the pattern (the caller then falls
// back to the host relay). The chosen chip ordering persists on the network,
// so subsequent invocations compile clean plans without re-detection.
func PlanForDegraded(n *Network, req collective.Request) (*Plan, error) {
	if len(n.deadPath) > 0 {
		switch req.Pattern {
		case collective.AllToAll:
			// Every ordered chip pair carries traffic; no ring ordering can
			// exclude a stuck pairing.
			return nil, fmt.Errorf("core: all-to-all uses every crossbar pairing; cannot exclude %d stuck pairings", len(n.deadPath))
		case collective.Gather, collective.Reduce:
			return nil, fmt.Errorf("core: funnel patterns converge on fixed pairings; cannot route around a stuck pairing")
		}
		order, ok := chipOrderAvoiding(n.Topo.Chips, n.deadPath)
		if !ok {
			return nil, fmt.Errorf("core: no inter-chip ring order avoids the %d stuck crossbar pairings", len(n.deadPath))
		}
		n.chipOrder = order
	}
	p, err := PlanFor(n, req)
	if err != nil {
		return nil, err
	}
	if err := n.rerouteRings(p); err != nil {
		return nil, err
	}
	// Anything still dead after reordering and rerouting (failed DQ channel,
	// failed bus, unavoidable pairing) means the pattern cannot be served.
	for _, ph := range p.Phases {
		for _, st := range ph.Steps {
			for _, tr := range st.Transfers {
				if tr.Dead {
					return nil, fmt.Errorf("core: phase %s still crosses a stuck crossbar pairing", ph.Name)
				}
				if l := n.links[tr.Link]; l.Failed() {
					return nil, fmt.Errorf("core: %s is hard-failed and unroutable", l.Name())
				}
			}
		}
	}
	if err := p.CheckContention(); err != nil {
		return nil, fmt.Errorf("core: recompiled plan: %w", err)
	}
	return p, nil
}

// chipOrderAvoiding searches for a cyclic ordering of the chips whose
// adjacent (successor) pairings avoid every stuck crossbar pairing. The
// search is deterministic backtracking with the first chip pinned (ring
// orders are rotation-invariant); with the handful of chips per rank PIMnet
// configures, and few dead pairings, it terminates immediately.
func chipOrderAvoiding(chips int, dead map[chipPath]bool) ([]int, bool) {
	bad := make(map[[2]int]bool, len(dead))
	for p := range dead {
		bad[[2]int{p.src, p.dst}] = true
	}
	order := make([]int, chips)
	used := make([]bool, chips)
	order[0] = 0
	used[0] = true
	var place func(k int) bool
	place = func(k int) bool {
		if k == chips {
			return !bad[[2]int{order[chips-1], order[0]}]
		}
		for c := 1; c < chips; c++ {
			if used[c] || bad[[2]int{order[k-1], c}] {
				continue
			}
			order[k] = c
			used[c] = true
			if place(k + 1) {
				return true
			}
			used[c] = false
		}
		return false
	}
	if chips == 1 {
		return order, true
	}
	if !place(1) {
		return nil, false
	}
	return order, true
}

// rerouteRings rewrites every transfer that rides a hard-failed bank-ring
// segment to go the long way around: the same bytes traverse each surviving
// segment of that ring instead (ring links multiplex, so the contention
// checker accepts this). Two failures in one ring disconnect it.
func (n *Network) rerouteRings(p *Plan) error {
	p.verified = false // transfers are rewritten below; force a re-check
	for pi := range p.Phases {
		ph := &p.Phases[pi]
		for si := range ph.Steps {
			st := &ph.Steps[si]
			rewritten := make([]Transfer, 0, len(st.Transfers))
			for _, tr := range st.Transfers {
				if tr.Kind != KindRing || !n.links[tr.Link].Failed() {
					rewritten = append(rewritten, tr)
					continue
				}
				role, rank, chip, bank := n.Topo.linkAt(tr.Link)
				if role != roleRing {
					return fmt.Errorf("core: failed link %s is not a ring segment", n.links[tr.Link].Name())
				}
				var survivors []int32
				first := tr.Link - int32(bank) // segment 0 of the same ring
				for i := first; i < first+int32(n.Topo.Banks); i++ {
					if !n.links[i].Failed() {
						survivors = append(survivors, i)
					}
				}
				if len(survivors) < n.Topo.Banks-1 {
					return fmt.Errorf("core: ring [r%d,c%d] has %d failed segments; banks disconnected",
						rank, chip, n.Topo.Banks-len(survivors))
				}
				for _, i := range survivors {
					rewritten = append(rewritten, Transfer{Link: i, Kind: KindRing, Bytes: tr.Bytes})
				}
			}
			st.Transfers = rewritten
		}
	}
	return nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
