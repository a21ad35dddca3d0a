// Package baselines models the two prior hardware proposals the paper
// compares against (Table I):
//
//   - DIMM-Link [89]: dedicated point-to-point bridges between DIMMs.
//     Collective operations execute in each rank's buffer chip, so all bank
//     data funnels through the 19.2 GB/s buffer-chip path (no bank-level
//     parallelism), while inter-rank hops use dedicated links that — per
//     the paper's fairness assumption — provide the same aggregate global
//     bandwidth as PIMnet's bus, with bridge overhead ignored.
//   - NDPBridge [85]: hardware bridges across the DRAM hierarchy that
//     forward messages between banks and chips, but with no collective
//     computation in the network and with inter-rank traffic still relayed
//     by the host CPU.
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

// DIMMLink is the DIMM-Link backend.
type DIMMLink struct {
	sys config.System
	// tracer, when non-nil, receives one KindHostStage span per buffer-chip
	// or inter-rank stage (TierChip for rank-internal hops, TierRank for the
	// dedicated links).
	tracer trace.Tracer
}

var _ backend.Backend = (*DIMMLink)(nil)

// NewDIMMLink builds the DIMM-Link model.
func NewDIMMLink(sys config.System) (*DIMMLink, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &DIMMLink{sys: sys}, nil
}

// Name implements backend.Backend.
func (d *DIMMLink) Name() string { return "DIMM-Link" }

// SetTracer attaches a tracer; every subsequent collective emits its stage
// timeline at any level. Pass nil to detach.
func (d *DIMMLink) SetTracer(t trace.Tracer, _ trace.Level) { d.tracer = t }

// ranksSpanned mirrors the hierarchy fill order used everywhere else.
func (d *DIMMLink) ranksSpanned(nodes int) int {
	perRank := d.sys.BanksPerRank()
	r := (nodes + perRank - 1) / perRank
	if r < 1 {
		r = 1
	}
	return r
}

// Collective implements backend.Backend.
func (d *DIMMLink) Collective(req collective.Request) (backend.Result, error) {
	if err := req.Validate(); err != nil {
		return backend.Result{}, fmt.Errorf("dimmlink: %w", err)
	}
	if req.Nodes > d.sys.DPUsPerChannel() {
		return backend.Result{}, fmt.Errorf("dimmlink: scope %d exceeds channel population %d",
			req.Nodes, d.sys.DPUsPerChannel())
	}
	var bd metrics.Breakdown
	var t sim.Time
	D := req.BytesPerNode
	n := req.Nodes
	r := d.ranksSpanned(n)
	perRank := n / r
	if perRank < 1 {
		perRank = 1
	}
	rankBytes := int64(perRank) * D // payload per rank
	bufBW := d.sys.Buffer.PIMBandwidth
	linkBW := d.sys.Net.RankBusBW // fairness: same global bandwidth as PIMnet

	// Buffer-chip hop latency is charged once per stage; the paper ignores
	// bridge overhead, so we keep it at the buffer-chip forwarding latency.
	hop := d.sys.Buffer.HopLatency

	emit := func(name string, tier trace.Tier, bytes int64, dt sim.Time) {
		if d.tracer != nil && dt > 0 {
			d.tracer.Emit(trace.Event{Kind: trace.KindHostStage, Tier: tier,
				Name: name, Start: int64(t), End: int64(t + dt), Bytes: bytes, From: -1, To: -1})
		}
	}
	collect := func() { // all bank payloads into the rank's buffer chip
		dt := sim.TransferTime(rankBytes, bufBW) + hop
		bd.Add(metrics.InterChip, dt)
		emit("collect", trace.TierChip, rankBytes, dt)
		t += dt
	}
	reduceInBuffer := func(bytes int64) {
		dt := sim.TransferTime(bytes, d.sys.Buffer.ReduceBW)
		bd.Add(metrics.InterChip, dt)
		emit("buffer-reduce", trace.TierChip, bytes, dt)
		t += dt
	}
	distribute := func(bytes int64) { // buffer chip back to the banks
		dt := sim.TransferTime(bytes, bufBW) + hop
		bd.Add(metrics.InterChip, dt)
		emit("distribute", trace.TierChip, bytes, dt)
		t += dt
	}
	interRank := func(bytes int64) { // dedicated links, ranks in parallel
		if r <= 1 {
			return
		}
		dt := sim.TransferTime(bytes, linkBW) + hop
		bd.Add(metrics.InterRank, dt)
		emit("inter-rank", trace.TierRank, bytes, dt)
		t += dt
	}

	switch req.Pattern {
	case collective.AllReduce:
		collect()
		reduceInBuffer(rankBytes)
		// Ring AllReduce on the reduced vector D across ranks: 2*(r-1)/r*D.
		interRank(2 * D * int64(r-1) / int64(r))
		// The result is identical for every bank: the buffer chip writes it
		// once over the rank-internal bus as a broadcast.
		distribute(D)
	case collective.ReduceScatter:
		collect()
		reduceInBuffer(rankBytes)
		interRank(D * int64(r-1) / int64(r))
		distribute(D) // one shard per bank, D total
	case collective.AllGather:
		collect()
		interRank(int64(n) * D * int64(r-1) / int64(r))
		distribute(int64(n) * D) // full concatenation to every bank, serialized
	case collective.AllToAll:
		collect()
		// Intra-rank blocks re-emitted by the buffer chip.
		distribute(rankBytes * int64(perRank-1) / int64(perRank))
		// Cross-rank blocks over the dedicated links (aggregate-bandwidth
		// fairness), then delivered to the destination banks.
		cross := int64(n) * D * int64(r-1) / int64(r)
		interRank(cross)
		if r > 1 {
			distribute(cross / int64(r))
		}
	case collective.Broadcast:
		interRank(D * int64(r-1) / int64(r))
		distribute(D)
	case collective.Gather, collective.Reduce:
		collect()
		if req.Pattern == collective.Reduce {
			reduceInBuffer(rankBytes)
			interRank(D * int64(r-1) / int64(r))
		} else {
			interRank(rankBytes * int64(r-1))
		}
		distribute(D)
	default:
		return backend.Result{}, fmt.Errorf("dimmlink: pattern %v unsupported", req.Pattern)
	}
	return backend.Result{Time: t, Breakdown: bd}, nil
}
