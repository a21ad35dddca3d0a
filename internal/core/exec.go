package core

import (
	"fmt"
	"math"

	"pimnet/internal/backend"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// Execute runs a compiled plan on the network starting at t=0 and returns
// the end-to-end latency with its breakdown. Steps are lock-step: every
// transfer of a step is released together (the static schedule's START
// semantics) and the next step begins when the slowest transfer and the
// pipelined reduction both finish. The network's link state is reset first,
// so Execute is repeatable.
//
// Execute replays every transfer. It is the miss path of a PlanCache-backed
// backend: a healthy, untraced repeat is answered from the cache before any
// network exists. A replay runs entirely out of the network's execScratch
// and allocates nothing once the scratch is sized.
func (n *Network) Execute(p *Plan) (backend.Result, error) {
	res, _, _, err := n.executePhases(p, execOptions{})
	return res, err
}

// execScratch is the executor's reusable working set: the per-phase duration
// staging and the breakdown accumulator that executePhases would otherwise
// allocate on every replay. Ownership rule: exactly one scratch per Network,
// and a Network is a documented single-owner type — sweep workers each build
// their own backend (and so their own network and scratch), which is what
// keeps parallel sweeps bit-identical to serial runs with zero sharing.
type execScratch struct {
	// durs stages per-phase durations. The slice executePhases returns
	// aliases this buffer: it is valid only until the next execution on the
	// same network, and callers that retain durations must copy them out
	// (compiledBounds does).
	durs []sim.Time
	// bd accumulates the component breakdown; results receive a value copy.
	bd metrics.Breakdown
}

// execOptions configures the fault-aware execution path. The zero value
// reproduces the healthy fast path bit-for-bit.
type execOptions struct {
	// bounds are per-phase abort deadlines, indexed like p.Phases: the
	// compiled-bound timeout guard. A phase whose duration exceeds its
	// bound is cut off at the bound instant. nil disables detection.
	bounds []sim.Time
	// sched, when non-nil, fires timed fault activations at every step
	// release instant (faults land between lock-steps, never mid-transfer:
	// the schedule is statically timed, so a link can only change state at
	// a step boundary as far as the plan can observe).
	sched *sim.Schedule
	// stragglerScale > 1 stretches every DPU-side reduction by the slowest
	// straggler's factor: the lock-step reduce is gated by the last DPU.
	stragglerScale float64
	// traceBase offsets emitted trace timestamps. The recovery ladder
	// re-runs plans with the executor clock rebased at zero; it passes the
	// wall-clock already burned so a traced recovery renders its attempts
	// sequentially instead of stacked at t=0. Timing math never reads it.
	traceBase sim.Time
}

// executePhases is the engine behind Execute. It additionally returns the
// per-phase durations and the index of the first phase that overran its
// bound (-1 when none did). On an abort the result covers the time actually
// burned — completed phases plus the timed-out phase's full bound — charged
// to each phase's own component; the caller reattributes it to Recovery.
// The returned durations alias the network's execScratch and are valid only
// until the next execution on this network; copy before retaining.
func (n *Network) executePhases(p *Plan, opt execOptions) (backend.Result, []sim.Time, int, error) {
	// A plan's link indices mean something only on its own topology.
	if p.Topo != n.Topo {
		return backend.Result{}, nil, -1, fmt.Errorf("core: plan topology %v != network topology %v", p.Topo, n.Topo)
	}
	// The contention check is memoized on the plan: every compiled or
	// decoded plan was verified once at construction, so replays skip the
	// per-step map the checker builds. Only hand-assembled plans pay it here.
	if !p.verified {
		if err := p.CheckContention(); err != nil {
			return backend.Result{}, nil, -1, err
		}
	}
	n.Reset()
	links := n.links
	sc := &n.scratch
	sc.durs = sc.durs[:0]
	sc.bd.Reset()
	bd := &sc.bd
	var now sim.Time
	tb := int64(opt.traceBase)

	// MRAM<->WRAM staging for payloads that exceed the scratchpad.
	if p.MemBytes > 0 {
		now += n.memTime(p.MemBytes)
		bd.Add(metrics.Mem, now)
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{Kind: trace.KindMemStage, Tier: trace.TierNone,
				Name: "mram-stage", Start: tb, End: tb + int64(now), Bytes: p.MemBytes, From: -1, To: -1})
		}
	}

	// READY/START synchronization: one tree traversal launches the whole
	// statically timed schedule (Section IV-C); the per-phase WAIT offsets
	// are already baked into the lock-step execution.
	sync := n.SyncLatency()
	if n.tracer != nil {
		n.tracer.Emit(trace.Event{Kind: trace.KindSyncTree, Tier: trace.TierNone,
			Name: "ready-start", Start: tb + int64(now), End: tb + int64(now+sync), From: -1, To: -1})
	}
	now += sync
	bd.Add(metrics.Sync, sync)

	for pi, ph := range p.Phases {
		phaseStart := now
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{Kind: trace.KindPhaseStart, Tier: trace.Tier(ph.Tier),
				Name: ph.Name, Start: tb + int64(phaseStart), End: tb + int64(phaseStart), From: -1, To: -1})
		}
		for si, st := range ph.Steps {
			var stepStart sim.Time
			if ph.Pipelined {
				stepStart = phaseStart
			} else {
				stepStart = sim.AddSat(now, n.Sys.Net.StepOverhead)
			}
			if opt.sched != nil {
				opt.sched.ApplyUpTo(stepStart)
			}
			end := stepStart
			for _, tr := range st.Transfers {
				done := sim.MaxTime
				if !tr.Dead {
					l := &links[tr.Link]
					var resStart sim.Time
					resStart, done = l.Reserve(stepStart, tr.Bytes)
					if n.traceLinks {
						// The busy window is the serialization interval:
						// reservation start to the instant the wire frees
						// (propagation excluded). A hard-failed wire never
						// frees; it emits nothing — the detection event
						// comes from the recovery ladder instead.
						if free := l.FreeAt(); free != sim.MaxTime {
							from, to := n.linkEndpoints(tr.Link)
							n.tracer.Emit(trace.Event{Kind: trace.KindLinkBusy,
								Tier: trace.Tier(ph.Tier), Name: ph.Name,
								Link: n.Topo.linkName(tr.Link), Start: tb + int64(resStart),
								End: tb + int64(free), Bytes: tr.Bytes,
								From: from, To: to, Seq: int64(si)})
						}
					}
				}
				if done > end {
					end = done
				}
			}
			if st.ReduceBytesPerNode > 0 {
				rt := n.reduceTime(st.ReduceBytesPerNode, p.Req.ElemSize)
				if opt.stragglerScale > 1 {
					rt = sim.Time(math.Ceil(float64(rt) * opt.stragglerScale))
				}
				r := sim.AddSat(stepStart, rt)
				if r > end {
					end = r
				}
			}
			if ph.Pipelined && end < now {
				end = now
			}
			now = end
		}
		if opt.bounds != nil && pi < len(opt.bounds) && now-phaseStart > opt.bounds[pi] {
			// The watchdog fires at the compiled bound: the phase missed
			// its statically known completion instant and is declared
			// failed. The bound's worth of wall-clock is burned.
			now = sim.AddSat(phaseStart, opt.bounds[pi])
			sc.durs = append(sc.durs, opt.bounds[pi])
			bd.Add(ph.Tier.Component(), opt.bounds[pi])
			if n.tracer != nil {
				n.tracer.Emit(trace.Event{Kind: trace.KindPhaseEnd, Tier: trace.Tier(ph.Tier),
					Name: ph.Name, Start: tb + int64(phaseStart), End: tb + int64(now), From: -1, To: -1})
			}
			return backend.Result{Time: now, Breakdown: *bd}, sc.durs, pi, nil
		}
		sc.durs = append(sc.durs, now-phaseStart)
		bd.Add(ph.Tier.Component(), now-phaseStart)
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{Kind: trace.KindPhaseEnd, Tier: trace.Tier(ph.Tier),
				Name: ph.Name, Start: tb + int64(phaseStart), End: tb + int64(now), From: -1, To: -1})
		}
	}
	return backend.Result{Time: now, Breakdown: *bd}, sc.durs, -1, nil
}

// memTime converts a DMA staging volume into time: sustained DMA bandwidth
// plus a fixed setup latency per WRAM-sized burst. All DPUs stage in
// parallel, so this is charged once.
func (n *Network) memTime(bytes int64) sim.Time {
	d := n.Sys.DPU
	usable := d.WRAMBytes / 2
	if usable <= 0 {
		usable = 1
	}
	bursts := (bytes + usable - 1) / usable
	return sim.TransferTime(bytes, d.DMABandwidth) + sim.Time(bursts)*d.DMALatency
}

// reduceTime is the DPU-side cost of combining the received stream into the
// local buffer. The reduction loop is pipelined across tasklets, streaming
// one element per AddCycles; ComputeScale models faster PIM compute
// (Fig. 15 alternative-PIM analysis).
func (n *Network) reduceTime(bytes int64, elemSize int) sim.Time {
	if elemSize <= 0 {
		elemSize = 4
	}
	d := n.Sys.DPU
	elems := (bytes + int64(elemSize) - 1) / int64(elemSize)
	cycles := int64(math.Ceil(float64(elems) * d.AddCycles / d.ComputeScale))
	return sim.Cycles(cycles, d.FreqHz)
}
