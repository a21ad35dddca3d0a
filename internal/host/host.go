// Package host models the software collective-communication paths of
// commodity PIM systems, where every PIM-to-PIM byte is relayed by the host
// CPU over the shared memory channel:
//
//   - Baseline: the SimplePIM-style implementation measured on the real
//     UPMEM server — measured transfer bandwidths (4.74 GB/s PIM->CPU,
//     6.68 GB/s CPU->PIM, 16.88 GB/s broadcast), per-invocation driver and
//     kernel-launch overhead, per-rank transfer setup, the SDK's
//     rank-interleaved layout transposition, and host-side reduction.
//   - Software(Ideal): an upper bound on any software approach (an
//     idealized PID-Comm): all host overheads removed and every transfer
//     moving at the raw channel rate. Scalability is still limited because
//     all data funnels twice through one shared channel.
package host

import (
	"fmt"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// variant selects the host-path overhead policy.
type variant int

const (
	baseline variant = iota // measured bandwidths + all software overheads
	maxDRAM                 // raw channel rate, software overheads retained
	ideal                   // raw channel rate, zero overheads
)

// Path is a host-relayed collective backend.
type Path struct {
	sys config.System
	v   variant
	// tracer, when non-nil, receives one KindHostStage span per stage of
	// every collective (launch, gather-up, host-reduce, scatter/broadcast).
	tracer trace.Tracer
}

var _ backend.Backend = (*Path)(nil)

// NewBaseline returns the measured-overhead host path.
func NewBaseline(sys config.System) (*Path, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &Path{sys: sys}, nil
}

// NewIdeal returns the zero-overhead, full-channel-rate host path.
func NewIdeal(sys config.System) (*Path, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &Path{sys: sys, v: ideal}, nil
}

// NewMaxDRAM returns the "Max DRAM BW" variant of the roofline analysis
// (Fig. 2): transfers run at the raw 19.2 GB/s channel rate, but the
// software structure — launches, per-rank setup, host-side reduction —
// remains.
func NewMaxDRAM(sys config.System) (*Path, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &Path{sys: sys, v: maxDRAM}, nil
}

// Name implements backend.Backend.
func (p *Path) Name() string {
	switch p.v {
	case ideal:
		return "Software(Ideal)"
	case maxDRAM:
		return "MaxDRAM"
	default:
		return "Baseline"
	}
}

// SetTracer attaches a tracer; every subsequent collective emits its stage
// timeline as KindHostStage spans at any level. Pass nil to detach.
func (p *Path) SetTracer(t trace.Tracer, _ trace.Level) { p.tracer = t }

// bandwidths for the three transfer directions, after overhead policy.
func (p *Path) upBW() float64 { // PIM -> CPU
	if p.v != baseline {
		return p.sys.Host.ChannelBW
	}
	return p.sys.Host.PIMToCPUBW / p.sys.Host.TransposeFactor
}

func (p *Path) downBW() float64 { // CPU -> PIM (per-DPU scatter)
	if p.v != baseline {
		return p.sys.Host.ChannelBW
	}
	return p.sys.Host.CPUToPIMBW / p.sys.Host.TransposeFactor
}

func (p *Path) bcastBW() float64 { // CPU -> all PIM, same data
	if p.v != baseline {
		return p.sys.Host.ChannelBW
	}
	return p.sys.Host.BroadcastBW
}

// ranksSpanned returns how many ranks the scope touches; baseline transfers
// are issued rank by rank with a fixed setup cost each.
func (p *Path) ranksSpanned(nodes int) int {
	perRank := p.sys.BanksPerRank()
	r := (nodes + perRank - 1) / perRank
	if r < 1 {
		r = 1
	}
	return r
}

// xfer charges a host transfer of total bytes split across the spanned
// ranks, serialized on the shared channel.
func (p *Path) xfer(bd *metrics.Breakdown, bytes int64, bw float64, nodes int) sim.Time {
	var t sim.Time
	ranks := p.ranksSpanned(nodes)
	if p.v != ideal {
		t += sim.Time(ranks) * p.sys.Host.RankSetup
	}
	t += sim.TransferTime(bytes, bw)
	bd.Add(metrics.HostXfer, t)
	return t
}

// hostCompute charges CPU-side elementwise work (reductions, reshaping).
func (p *Path) hostCompute(bd *metrics.Breakdown, bytes int64) sim.Time {
	if p.v == ideal || bytes == 0 {
		return 0
	}
	t := sim.TransferTime(bytes, p.sys.Host.ReduceBW)
	bd.Add(metrics.HostCompute, t)
	return t
}

// launch charges the per-invocation driver/kernel-launch overhead.
func (p *Path) launch(bd *metrics.Breakdown) sim.Time {
	if p.v == ideal {
		return 0
	}
	bd.Add(metrics.Launch, p.sys.Host.LaunchOverhead)
	return p.sys.Host.LaunchOverhead
}

// Collective implements backend.Backend. Every pattern decomposes into
// gather-to-host / host-compute / scatter-from-host stages on the shared
// channel — exactly the structure of Fig. 5(a).
func (p *Path) Collective(req collective.Request) (backend.Result, error) {
	if err := req.Validate(); err != nil {
		return backend.Result{}, fmt.Errorf("host: %w", err)
	}
	if req.Nodes > p.sys.DPUsPerChannel() {
		return backend.Result{}, fmt.Errorf("host: scope %d exceeds channel population %d",
			req.Nodes, p.sys.DPUsPerChannel())
	}
	var bd metrics.Breakdown
	var t sim.Time
	D := req.BytesPerNode
	total := req.TotalBytes()
	n := req.Nodes

	// stage advances the relay clock by one stage's duration and, with a
	// tracer attached, emits the stage as a KindHostStage span on the host
	// track. Zero-duration stages (e.g. ideal-variant launches) are elided.
	stage := func(name string, bytes int64, d sim.Time) {
		if p.tracer != nil && d > 0 {
			p.tracer.Emit(trace.Event{Kind: trace.KindHostStage, Tier: trace.TierNone,
				Name: name, Start: int64(t), End: int64(t + d), Bytes: bytes, From: -1, To: -1})
		}
		t += d
	}

	stage("launch", 0, p.launch(&bd))
	switch req.Pattern {
	case collective.AllReduce:
		stage("gather-up", total, p.xfer(&bd, total, p.upBW(), n)) // all partials to host
		stage("host-reduce", total, p.hostCompute(&bd, total))     // elementwise reduce
		stage("broadcast-down", D, p.xfer(&bd, D, p.bcastBW(), n)) // identical result broadcast
	case collective.ReduceScatter:
		stage("gather-up", total, p.xfer(&bd, total, p.upBW(), n))
		stage("host-reduce", total, p.hostCompute(&bd, total))
		stage("scatter-down", D, p.xfer(&bd, D, p.downBW(), n)) // one shard per node, D total
	case collective.AllGather:
		stage("gather-up", total, p.xfer(&bd, total, p.upBW(), n))
		stage("broadcast-down", total, p.xfer(&bd, total, p.bcastBW(), n)) // same concatenation to all
	case collective.AllToAll:
		stage("gather-up", total, p.xfer(&bd, total, p.upBW(), n))
		stage("host-reshuffle", total, p.hostCompute(&bd, total)) // block reshuffle in host memory
		stage("scatter-down", total, p.xfer(&bd, total, p.downBW(), n))
	case collective.Broadcast:
		stage("broadcast-down", D, p.xfer(&bd, D, p.bcastBW(), n))
	case collective.Gather:
		stage("gather-up", total, p.xfer(&bd, total, p.upBW(), n))
	case collective.Reduce:
		stage("gather-up", total, p.xfer(&bd, total, p.upBW(), n))
		stage("host-reduce", total, p.hostCompute(&bd, total))
		stage("result-down", D, p.xfer(&bd, D, p.downBW(), 1)) // result to the root only
	default:
		return backend.Result{}, fmt.Errorf("host: pattern %v unsupported", req.Pattern)
	}
	return backend.Result{Time: t, Breakdown: bd}, nil
}
