package baselines

import (
	"fmt"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// NDPBridge is the NDPBridge [85] backend: hierarchical hardware bridges
// forward messages between banks and chips within a rank, but the network
// performs no collective computation, and rank-to-rank traffic is relayed
// by the host CPU (Table I). The paper therefore evaluates it only on
// All-to-all workloads; reduction patterns return ErrNoReduction.
type NDPBridge struct {
	sys config.System
	// tracer, when non-nil, receives one KindHostStage span per bridge
	// forwarding stage (TierChip) and host relay (TierNone).
	tracer trace.Tracer
}

var _ backend.Backend = (*NDPBridge)(nil)

// ErrNoReduction is returned for patterns that require in-network
// reduction, which NDPBridge does not support.
var ErrNoReduction = fmt.Errorf("ndpbridge: no collective-operation support (forwarding only)")

// NewNDPBridge builds the NDPBridge model.
func NewNDPBridge(sys config.System) (*NDPBridge, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &NDPBridge{sys: sys}, nil
}

// Name implements backend.Backend.
func (nb *NDPBridge) Name() string { return "NDPBridge" }

// SetTracer attaches a tracer; every subsequent collective emits its stage
// timeline at any level. Pass nil to detach.
func (nb *NDPBridge) SetTracer(t trace.Tracer, _ trace.Level) { nb.tracer = t }

func (nb *NDPBridge) ranksSpanned(nodes int) int {
	perRank := nb.sys.BanksPerRank()
	r := (nodes + perRank - 1) / perRank
	if r < 1 {
		r = 1
	}
	return r
}

// Collective implements backend.Backend.
func (nb *NDPBridge) Collective(req collective.Request) (backend.Result, error) {
	if err := req.Validate(); err != nil {
		return backend.Result{}, fmt.Errorf("ndpbridge: %w", err)
	}
	if req.Pattern.Reduces() {
		return backend.Result{}, ErrNoReduction
	}
	if req.Nodes > nb.sys.DPUsPerChannel() {
		return backend.Result{}, fmt.Errorf("ndpbridge: scope %d exceeds channel population %d",
			req.Nodes, nb.sys.DPUsPerChannel())
	}
	var bd metrics.Breakdown
	var t sim.Time
	D := req.BytesPerNode
	n := req.Nodes
	r := nb.ranksSpanned(n)
	perRank := n / r
	if perRank < 1 {
		perRank = 1
	}
	rankBytes := int64(perRank) * D
	bufBW := nb.sys.Buffer.PIMBandwidth
	hop := nb.sys.Buffer.HopLatency

	forward := func(bytes int64, hops int) { // bridge store-and-forward within a rank
		dt := sim.TransferTime(bytes, bufBW) + sim.Time(hops)*hop
		bd.Add(metrics.InterChip, dt)
		if nb.tracer != nil && dt > 0 {
			nb.tracer.Emit(trace.Event{Kind: trace.KindHostStage, Tier: trace.TierChip,
				Name: "bridge-forward", Start: int64(t), End: int64(t + dt), Bytes: bytes, From: -1, To: -1})
		}
		t += dt
	}
	viaHost := func(up, down int64) { // inter-rank messages relayed by the CPU
		dt := sim.TransferTime(up, nb.sys.Host.PIMToCPUBW) +
			sim.TransferTime(down, nb.sys.Host.CPUToPIMBW)
		bd.Add(metrics.HostXfer, dt)
		if nb.tracer != nil && dt > 0 {
			nb.tracer.Emit(trace.Event{Kind: trace.KindHostStage, Tier: trace.TierNone,
				Name: "host-relay", Start: int64(t), End: int64(t + dt), Bytes: up + down, From: -1, To: -1})
		}
		t += dt
	}

	switch req.Pattern {
	case collective.AllToAll:
		// Intra-rank blocks: into the bridge hierarchy and back out.
		intra := rankBytes * int64(perRank-1) / int64(perRank)
		forward(intra, 2)
		forward(intra, 2)
		// Cross-rank blocks: bridges hand them to the host, which relays.
		if r > 1 {
			cross := int64(n) * D * int64(r-1) / int64(r)
			viaHost(cross, cross)
		}
	case collective.AllGather:
		forward(rankBytes, 2)
		if r > 1 {
			cross := int64(n) * D * int64(r-1) / int64(r)
			viaHost(cross, cross)
		}
		forward(int64(n)*D, 2) // deliver the concatenation to the banks
	case collective.Broadcast:
		if r > 1 {
			viaHost(D, D*int64(r-1))
		}
		forward(D, 2)
	case collective.Gather:
		forward(rankBytes, 2)
		if r > 1 {
			viaHost(int64(n)*D*int64(r-1)/int64(r), 0)
		}
	default:
		return backend.Result{}, fmt.Errorf("ndpbridge: pattern %v unsupported", req.Pattern)
	}
	return backend.Result{Time: t, Breakdown: bd}, nil
}
