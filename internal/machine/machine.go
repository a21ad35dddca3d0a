// Package machine composes a system configuration, a collective backend,
// and a workload phase graph into an end-to-end simulated execution. It
// enforces the paper's fairness rule: the compute side of a workload is
// identical across backends; only collective-communication time differs.
//
// The machine also implements the two system-level experiments that sit
// above a single channel: memory-channel scaling (Fig. 16), where PIMnet
// reduces cross-channel traffic by channel-wise reduction before involving
// the host, and multi-tenancy (Fig. 17), where spatially partitioned
// tenants contend for the host path but are bandwidth-isolated on PIMnet.
package machine

import (
	"fmt"
	"math"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/dpu"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// Phase is one superstep of a workload: per-DPU compute (sized by the
// busiest DPU, since collectives synchronize), optional MRAM traffic, and
// an optional trailing collective.
type Phase struct {
	Name      string
	Kernel    dpu.Kernel // busiest DPU's operation counts
	MRAMBytes int64      // per-DPU streaming MRAM<->WRAM traffic for the kernel
	// MRAMRandom counts irregular MRAM accesses (pointer chasing, hash
	// probes, embedding gathers); each costs the DMA setup latency, which
	// dominates sub-burst transfers on real DPUs.
	MRAMRandom int64
	Collective *collective.Request // nil for compute-only phases
	Repeat     int                 // iteration count; 0 means 1
}

// Workload is a named phase graph.
type Workload struct {
	Name   string
	Phases []Phase
}

// Report is the outcome of one workload execution. Report is comparable
// with ==; the fault-determinism regression test relies on two identically
// seeded runs producing identical values. The json tags define the wire
// schema the serving daemon (internal/serve) returns for workload requests;
// every field is deterministic, so equal runs marshal to identical bytes.
type Report struct {
	Workload  string            `json:"workload"`
	Backend   string            `json:"backend"`
	Total     sim.Time          `json:"total_ps"`
	Breakdown metrics.Breakdown `json:"breakdown"`
	// Faults holds the recovery-ladder counters this run incurred (zero
	// unless the backend carries a fault model).
	Faults metrics.FaultCounters `json:"faults"`
	// Degraded reports whether any collective completed in degraded mode:
	// on a recompiled route, an accepted slow network, or the host-relay
	// fallback.
	Degraded bool `json:"degraded"`
	// Util holds the link-utilization summary when the backend ran with a
	// trace.Util aggregator attached; nil on untraced runs. A pointer keeps
	// Report comparable with == (the fault-determinism tests compare
	// reports), and untraced reports — the only ones those tests build —
	// leave it nil.
	Util *trace.Summary `json:"util,omitempty"`
}

// FaultAware is implemented by backends that carry a fault model (PIMnet
// after EnableFaults). The machine surfaces their counters in the Report and
// applies the straggler compute slowdown to workload kernels — a lock-step
// fleet computes at the slowest DPU's pace.
type FaultAware interface {
	FaultCounters() metrics.FaultCounters
	DegradedMode() bool
	ComputeSlowdown() float64
}

// UtilSummarizer is implemented by backends that can report a
// link-utilization summary (PIMnet with a trace.Util aggregator attached).
// The machine copies the summary into the Report after the run.
type UtilSummarizer interface {
	UtilSummary() *trace.Summary
}

// CommFraction returns the share of total time spent communicating.
func (r Report) CommFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Breakdown.CommTotal()) / float64(r.Total)
}

// Machine binds a system configuration to a collective backend.
type Machine struct {
	sys   config.System
	be    backend.Backend
	model *dpu.Model
}

// New builds a machine. The backend must have been constructed for the same
// system configuration.
func New(sys config.System, be backend.Backend) (*Machine, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	m, err := dpu.NewModel(sys.DPU)
	if err != nil {
		return nil, err
	}
	return &Machine{sys: sys, be: be, model: m}, nil
}

// System returns the machine's configuration.
func (m *Machine) System() config.System { return m.sys }

// Backend returns the machine's collective backend.
func (m *Machine) Backend() backend.Backend { return m.be }

// Run executes the workload on one memory channel and returns the report.
func (m *Machine) Run(wl Workload) (Report, error) {
	rep := Report{Workload: wl.Name, Backend: m.be.Name()}
	fa, _ := m.be.(FaultAware)
	var before metrics.FaultCounters
	if fa != nil {
		before = fa.FaultCounters()
	}
	for _, ph := range wl.Phases {
		iters := ph.Repeat
		if iters < 1 {
			iters = 1
		}
		var once metrics.Breakdown
		ct := m.model.Time(ph.Kernel)
		if ph.MRAMRandom > 0 {
			ct += sim.Time(ph.MRAMRandom) * m.sys.DPU.DMALatency
		}
		if fa != nil {
			if scale := fa.ComputeSlowdown(); scale > 1 {
				ct = sim.Time(math.Ceil(float64(ct) * scale))
			}
		}
		once.Add(metrics.Compute, ct)
		if ph.MRAMBytes > 0 {
			once.Add(metrics.Mem, m.model.DMATime(ph.MRAMBytes))
		}
		if ph.Collective != nil {
			res, err := m.be.Collective(*ph.Collective)
			if err != nil {
				return Report{}, fmt.Errorf("machine: workload %q phase %q: %w", wl.Name, ph.Name, err)
			}
			once.Merge(res.Breakdown)
		}
		once.Scale(int64(iters))
		rep.Breakdown.Merge(once)
	}
	rep.Total = rep.Breakdown.Total()
	if fa != nil {
		rep.Faults = fa.FaultCounters().Sub(before)
		rep.Degraded = fa.DegradedMode()
	}
	if us, ok := m.be.(UtilSummarizer); ok {
		rep.Util = us.UtilSummary()
	}
	return rep, nil
}

// RunMultiChannel executes the workload across all configured channels.
// Channels operate in parallel (each has its own bus and its own PIMnet),
// so the per-channel time is the single-channel time; what differs across
// backends is the cross-channel combination step for reducing collectives:
//
//   - a reducing backend (PIMnet, DIMM-Link) has already produced one
//     reduced vector per channel, so the host only moves
//     channels x BytesPerNode and reduces that;
//   - a host-relayed backend has no channel-local reduction advantage, but
//     the host-side work still grows with the channel count: the CPU's
//     reduce loop is the serialization point.
//
// Per-channel transfers overlap across channels; CPU-side reduction does
// not. This matches the paper's Fig. 16 observation that PIMnet's speedup
// grows with the number of channels.
func (m *Machine) RunMultiChannel(wl Workload) (Report, error) {
	rep, err := m.Run(wl)
	if err != nil {
		return Report{}, err
	}
	ch := int64(m.sys.Channels)
	if ch <= 1 {
		return rep, nil
	}
	host := m.sys.Host
	channelReduces := m.be.Name() != "Baseline" && m.be.Name() != "Software(Ideal)"
	if !channelReduces {
		// Channel buses move data in parallel, but the single CPU performs
		// every channel's reduction and reshaping serially: the host-compute
		// share of the run replicates once per additional channel. This is
		// the serialization that makes the baseline fall behind as channels
		// are added (Fig. 16).
		serial := rep.Breakdown.Get(metrics.HostCompute)
		rep.Breakdown.Add(metrics.HostCompute, serial*sim.Time(ch-1))
	}
	for _, ph := range wl.Phases {
		if ph.Collective == nil || !ph.Collective.Pattern.Reduces() {
			continue
		}
		iters := int64(ph.Repeat)
		if iters < 1 {
			iters = 1
		}
		D := ph.Collective.BytesPerNode
		var up, reduce, down sim.Time
		if channelReduces {
			// One reduced vector per channel: parallel channel uplinks,
			// serial CPU combine over channels x D.
			up = sim.TransferTime(D, host.PIMToCPUBW)
			reduce = sim.TransferTime(ch*D, host.ReduceBW)
			down = sim.TransferTime(D, host.CPUToPIMBW)
		} else {
			// The host already holds every channel's reduced result from the
			// per-channel collective, but combining across channels adds a
			// CPU pass over channels x D plus redistribution.
			reduce = sim.TransferTime(ch*D, host.ReduceBW)
			down = sim.TransferTime(D, host.CPUToPIMBW)
		}
		var bd metrics.Breakdown
		bd.Add(metrics.HostXfer, up+down)
		bd.Add(metrics.HostCompute, reduce)
		bd.Scale(iters)
		rep.Breakdown.Merge(bd)
	}
	rep.Total = rep.Breakdown.Total()
	return rep, nil
}

// TenantReport is the outcome of a two-tenant spatial-multiplexing run.
type TenantReport struct {
	TenantA, TenantB Report
	// Makespan is the completion time of the slower tenant under the
	// platform's sharing rules.
	Makespan sim.Time
}

// RunTenants executes two workloads mapped onto disjoint halves of the
// channel (Fig. 17). Both backends must have been built for the half-sized
// subsystem. Sharing rules:
//
//   - host-relayed backends serialize all communication of both tenants on
//     the single CPU<->PIM path: each tenant's communication time inflates
//     by the other tenant's;
//   - PIMnet (and DIMM-Link) isolate bank- and chip-tier traffic inside
//     each tenant's ranks; only inter-rank bus time is shared.
func RunTenants(ma, mb *Machine, wa, wb Workload) (TenantReport, error) {
	ra, err := ma.Run(wa)
	if err != nil {
		return TenantReport{}, err
	}
	rb, err := mb.Run(wb)
	if err != nil {
		return TenantReport{}, err
	}
	hostShared := func(r Report) sim.Time {
		return r.Breakdown.Get(metrics.HostXfer) + r.Breakdown.Get(metrics.HostCompute) +
			r.Breakdown.Get(metrics.Launch)
	}
	busShared := func(r Report) sim.Time { return r.Breakdown.Get(metrics.InterRank) }

	ta := ra.Total + hostShared(rb) + busShared(rb)
	tb := rb.Total + hostShared(ra) + busShared(ra)
	ra.Total = ta
	rb.Total = tb
	mk := ta
	if tb > mk {
		mk = tb
	}
	return TenantReport{TenantA: ra, TenantB: rb, Makespan: mk}, nil
}

// Speedup returns how much faster b completed the same workload than a
// (a.Total / b.Total).
func Speedup(a, b Report) float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(a.Total) / float64(b.Total)
}
