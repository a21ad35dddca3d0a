// Package pimnet is a simulation library reproducing "PIMnet: A
// Domain-Specific Network for Efficient Collective Communication in
// Scalable PIM" (HPCA 2025).
//
// It models a UPMEM-class processing-in-memory system — banks of
// general-purpose DPUs inside DDR4 DRAM chips — and six ways of performing
// collective communication between the PIM banks:
//
//   - Baseline: the commodity path, where the host CPU relays every byte
//     over the shared memory channel (SimplePIM-style);
//   - Software(Ideal): an upper bound on software approaches such as
//     PID-Comm, with zero host overhead and full channel bandwidth;
//   - DIMM-Link: dedicated inter-DIMM bridges with buffer-chip collectives;
//   - NDPBridge: hierarchical hardware message forwarding, host-relayed
//     between ranks, no in-network reduction;
//   - PIMnet: the paper's contribution — a statically scheduled,
//     bufferless, PIM-controlled multi-tier interconnect (inter-bank ring,
//     inter-chip crossbar, inter-rank bus) compiled per collective;
//   - CXL-PIM: the architectural-crossover model — the same PIM devices
//     behind a switched CXL fabric, trading link latency on small
//     transfers for full-duplex per-device bandwidth and relaxed
//     capacity (see internal/cxlpim and the crossover experiment).
//
// The library includes the full evaluation stack: the eight application
// workloads of the paper (BFS, CC, GEMV, MLP, SpMV, EMB, NTT, Join) built
// on real substrates (graph generator and traversals, sparse matrices,
// Goldilocks-field NTT, embedding tables, hash joins), a packet-level
// network simulator for the flow-control study, roofline models, an
// analytical hardware-cost model, and experiment runners that regenerate
// every figure and table of the paper (see EXPERIMENTS.md).
//
// Quick start:
//
//	sys, _ := pimnet.DefaultSystem().WithDPUs(256)
//	p, _ := pimnet.NewPIMnet(sys)
//	res, _ := p.Collective(pimnet.Request{
//	    Pattern: pimnet.AllReduce, Op: pimnet.Sum,
//	    BytesPerNode: 32 << 10, ElemSize: 4, Nodes: 256,
//	})
//	fmt.Println(res.Time, res.Breakdown.String())
package pimnet

import (
	"fmt"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/faults"
	"pimnet/internal/machine"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
	"pimnet/internal/workloads"
)

// Core types re-exported from the internal packages.
type (
	// System is the simulated platform configuration (topology, tier
	// bandwidths, DPU parameters, host-path characteristics).
	System = config.System
	// Request describes one collective invocation.
	Request = collective.Request
	// Pattern is a collective-communication pattern.
	Pattern = collective.Pattern
	// Op is an elementwise reduction operator.
	Op = collective.Op
	// Backend executes collectives on one communication substrate.
	Backend = backend.Backend
	// Result is the outcome of a collective invocation.
	Result = backend.Result
	// Time is a simulated duration in picoseconds.
	Time = sim.Time
	// Breakdown attributes simulated time to components.
	Breakdown = metrics.Breakdown
	// Machine binds a system configuration to a backend and runs workloads.
	Machine = machine.Machine
	// Workload is a phase graph of compute supersteps and collectives.
	Workload = machine.Workload
	// Report is a workload execution outcome.
	Report = machine.Report
	// WorkloadOptions selects a workload's execution scope.
	WorkloadOptions = workloads.Options
	// FaultSpec configures the deterministic fault generator.
	FaultSpec = faults.Spec
	// FaultModel is a realized, seed-determined fault set.
	FaultModel = faults.Model
	// FaultCounters tallies the recovery ladder's events.
	FaultCounters = metrics.FaultCounters
)

// Collective patterns (paper Table V).
const (
	ReduceScatter = collective.ReduceScatter
	AllGather     = collective.AllGather
	AllReduce     = collective.AllReduce
	AllToAll      = collective.AllToAll
	Broadcast     = collective.Broadcast
	Gather        = collective.Gather
	Reduce        = collective.Reduce
)

// Reduction operators.
const (
	Sum = collective.Sum
	Min = collective.Min
	Max = collective.Max
	Or  = collective.Or
)

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultSystem returns the paper's evaluation configuration (Tables II,
// IV, VI): one DDR4-2400 channel, 4 ranks x 8 chips x 8 banks = 256 DPUs.
func DefaultSystem() System { return config.Default() }

// UPMEMServer returns the characterized 20-DIMM server shape of Table II.
func UPMEMServer() System { return config.UPMEMServer() }

// NewPIMnet builds the paper's proposed interconnect for one channel.
// Construction options configure tracing, fault injection, and plan-cache
// sharing:
//
//	p, _ := pimnet.NewPIMnet(sys,
//	    pimnet.WithTracer(chrome),
//	    pimnet.WithFaults(spec),
//	    pimnet.WithFallback(baseline))
func NewPIMnet(sys System, opts ...Option) (*core.PIMnet, error) {
	be, err := NewBackend(PIMnet, sys, opts...)
	if err != nil {
		return nil, err
	}
	return be.(*core.PIMnet), nil
}

// NewMachine binds a system and a backend into a workload runner.
func NewMachine(sys System, be Backend) (*Machine, error) { return machine.New(sys, be) }

// Backends builds all six comparison backends for one system shape, in
// figure order (B, S, N, D, P, C). The option list is applied to every
// backend; options a kind does not support are ignored for that kind, so one
// tracer (or fault spec) configures the whole comparison set.
func Backends(sys System, opts ...Option) ([]Backend, error) {
	kinds := BackendKinds()
	out := make([]Backend, 0, len(kinds))
	for _, k := range kinds {
		be, err := NewBackend(k, sys, opts...)
		if err != nil {
			return nil, fmt.Errorf("pimnet: building %v backend: %w", k, err)
		}
		out = append(out, be)
	}
	return out, nil
}

// EvaluationSuite builds the paper's eight workloads (Table VII) for the
// given DPU population. scaled selects reduced inputs for quick runs.
func EvaluationSuite(nodes int, seed int64, scaled bool) ([]Workload, error) {
	return workloads.Suite(workloads.SuiteConfig{Nodes: nodes, Seed: seed, Scaled: scaled})
}

// NamedWorkload resolves one workload by name (case-insensitive, prefix
// tolerant): the eight Table VII applications plus the PIMfused fused-layer
// CNN class, which is not part of the paper suite. It builds only that
// workload's inputs.
func NamedWorkload(name string, nodes int, seed int64, scaled bool) (Workload, error) {
	return workloads.Named(name, workloads.SuiteConfig{Nodes: nodes, Seed: seed, Scaled: scaled})
}

// Speedup returns a.Total / b.Total.
func Speedup(a, b Report) float64 { return machine.Speedup(a, b) }

// ParseFaultSpec parses the CLI fault syntax, e.g.
// "fail-chip=1,degrade=2,corrupt=0.05". See faults.ParseSpec for the keys.
func ParseFaultSpec(s string) (FaultSpec, error) { return faults.ParseSpec(s) }

// NewFaultModel realizes a fault spec against the system's single-channel
// topology. The same spec, seed, and topology always yield the same faults.
func NewFaultModel(spec FaultSpec, sys System) (*FaultModel, error) {
	return faults.New(spec, sys.Ranks, sys.ChipsPerRank, sys.BanksPerChip)
}
