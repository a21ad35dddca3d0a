// Package cxlpim implements the CXL-PIM backend: the same PIM devices the
// paper evaluates, but attached to the host through a switched CXL fabric
// instead of sharing DDR channels. The channel population splits evenly
// across config.CXL.Devices identical devices; inside a device the PIMnet
// tiers apply unchanged, while every inter-device byte pays the fabric's
// link latency (times switch hops) and serializes on a full-duplex per-device
// link. The trade-off this models — per-device capacity and full-duplex
// links versus link-latency-dominated small transfers — is the
// architectural-crossover study of "PIM or CXL-PIM?" (see PAPERS.md).
//
// The intra-device halves of every collective are genuine compiled PIMnet
// plans: the devices are symmetric and run in lockstep, so one
// device-shaped core.PIMnet backend simulates all of them. The shared
// PlanCache, keyed by the device system and the intra-device request, and
// its bypass for traced runs apply exactly as they do for the PIMnet
// backend. The inter-device half is analytic and charged to the
// metrics.CXLLink component.
package cxlpim

import (
	"fmt"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// CXLPIM is the CXL-attached PIM backend.
type CXLPIM struct {
	sys     config.System // full-population system the requests address
	cxl     config.CXL    // fabric parameters, defaults filled
	dev     *core.PIMnet  // simulates one device; all devices are lockstep
	devices int
	perDev  int
	tracer  trace.Tracer
}

var _ backend.Backend = (*CXLPIM)(nil)

// New builds the CXL-PIM backend for sys. The channel population must split
// evenly across sys.CXL.Devices (capped at one DPU per device); zero-valued
// fabric parameters fall back to config.DefaultCXL.
func New(sys config.System) (*CXLPIM, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("cxlpim: %w", err)
	}
	cxl := sys.CXL.WithDefaults()
	if err := cxl.Validate(); err != nil {
		return nil, fmt.Errorf("cxlpim: %w", err)
	}
	pop := sys.DPUsPerChannel()
	devices := cxl.Devices
	if devices > pop {
		devices = pop
	}
	if pop%devices != 0 {
		return nil, fmt.Errorf("cxlpim: %d DPUs do not split evenly across %d devices", pop, devices)
	}
	perDev := pop / devices
	devSys, err := sys.WithDPUs(perDev)
	if err != nil {
		return nil, fmt.Errorf("cxlpim: shaping %d-DPU device: %w", perDev, err)
	}
	dev, err := core.NewPIMnet(devSys)
	if err != nil {
		return nil, fmt.Errorf("cxlpim: %w", err)
	}
	return &CXLPIM{sys: sys, cxl: cxl, dev: dev, devices: devices, perDev: perDev}, nil
}

// Name implements backend.Backend.
func (c *CXLPIM) Name() string { return "CXL-PIM" }

// WithPlanCache attaches a shared compiled-plan cache to the intra-device
// path and returns the backend (builder style). Pass nil to detach.
func (c *CXLPIM) WithPlanCache(pc *core.PlanCache) *CXLPIM {
	c.dev.WithPlanCache(pc)
	return c
}

// SetTracer attaches a tracer: fabric stages are emitted as host-stage
// spans, and the device sub-network emits its usual phase/sync/mem (and,
// at LevelLink, per-transfer) events. Pass nil to detach.
func (c *CXLPIM) SetTracer(t trace.Tracer, level trace.Level) {
	c.tracer = t
	c.dev.SetTracer(t, level)
}

// fabricStage is one analytic inter-device stage: steps serialized fabric
// rounds, each moving bytes per device and paying the per-step latency;
// reduceSteps of them additionally stream the payload through the device
// controller's elementwise reducer.
type fabricStage struct {
	name        string
	steps       int
	bytes       int64
	reduceSteps int
}

// phase is one stage of the hierarchical schedule: exactly one of intra
// (a lockstep per-device collective) or fabric is set.
type phase struct {
	intra  *collective.Request
	fabric *fabricStage
}

// time returns the simulated duration of a fabric stage.
func (c *CXLPIM) fabricTime(f *fabricStage) sim.Time {
	stepLat := c.cxl.LinkLatency * sim.Time(c.cxl.SwitchHops+1)
	xfer := sim.TransferTime(f.bytes, c.cxl.LinkBandwidth)
	red := sim.TransferTime(f.bytes, c.cxl.ReduceBW)
	return sim.Time(f.steps)*(stepLat+xfer) + sim.Time(f.reduceSteps)*red
}

// alignUp rounds n up to a positive multiple of m.
func alignUp(n, m int64) int64 {
	if n < 1 {
		n = 1
	}
	return (n + m - 1) / m * m
}

// ceilLog2 returns ceil(log2(n)) for n >= 1.
func ceilLog2(n int) int {
	steps := 0
	for span := 1; span < n; span *= 2 {
		steps++
	}
	return steps
}

// intraReq builds a lockstep per-device sub-request.
func (c *CXLPIM) intraReq(req collective.Request, pat collective.Pattern, bytes int64, root int) *collective.Request {
	return &collective.Request{
		Pattern:      pat,
		Op:           req.Op,
		BytesPerNode: bytes,
		ElemSize:     req.ElemSize,
		Nodes:        c.perDev,
		Root:         root,
	}
}

// decompose lowers req into the ordered hierarchical schedule. Devices are
// symmetric: every device runs the same intra-device sub-collective in
// lockstep, which is what lets one device backend simulate the fabric and
// keeps the intra-device results shareable through the cache.
func (c *CXLPIM) decompose(req collective.Request) ([]phase, error) {
	if c.devices == 1 {
		r := req
		return []phase{{intra: &r}}, nil
	}
	var (
		D    = int64(c.devices)
		m    = int64(c.perDev)
		N    = int64(req.Nodes)
		B    = req.BytesPerNode
		elem = int64(req.ElemSize)
	)
	// Ring shard exchanged per fabric step of the bandwidth-optimal
	// reduce-scatter / all-gather rings across devices.
	shard := alignUp((B+D-1)/D, elem)
	switch req.Pattern {
	case collective.AllReduce:
		// Intra reduce-scatter, device-ring allreduce over the shards,
		// intra all-gather: the standard hierarchical decomposition.
		return []phase{
			{intra: c.intraReq(req, collective.ReduceScatter, B, 0)},
			{fabric: &fabricStage{name: "cxl-allreduce", steps: 2 * int(D-1), bytes: shard, reduceSteps: int(D - 1)}},
			{intra: c.intraReq(req, collective.AllGather, B, 0)},
		}, nil
	case collective.ReduceScatter:
		return []phase{
			{intra: c.intraReq(req, collective.ReduceScatter, B, 0)},
			{fabric: &fabricStage{name: "cxl-reducescatter", steps: int(D - 1), bytes: shard, reduceSteps: int(D - 1)}},
		}, nil
	case collective.AllGather:
		// After the intra all-gather each device holds its m*B block; the
		// device ring circulates the blocks, then the (D-1)*m*B of foreign
		// data fans out to the device's DPUs (modeled as an intra
		// broadcast from the DPU adjacent to the controller).
		return []phase{
			{intra: c.intraReq(req, collective.AllGather, B, 0)},
			{fabric: &fabricStage{name: "cxl-allgather", steps: int(D - 1), bytes: m * B}},
			{intra: c.intraReq(req, collective.Broadcast, (D-1)*m*B, 0)},
		}, nil
	case collective.AllToAll:
		// Split by destination device: the device-local m/N slice shuffles
		// on the PIMnet tiers, the foreign (N-m)/N slice crosses the
		// fabric pairwise (D-1 rounds) and is then redistributed inside
		// each device.
		local := alignUp(B*m/N, m*elem)
		foreign := alignUp(B*m*m/N, elem)
		redist := alignUp(B*(N-m)/N, m*elem)
		return []phase{
			{intra: c.intraReq(req, collective.AllToAll, local, 0)},
			{fabric: &fabricStage{name: "cxl-alltoall", steps: int(D - 1), bytes: foreign}},
			{intra: c.intraReq(req, collective.AllToAll, redist, 0)},
		}, nil
	case collective.Broadcast:
		// Binomial tree across devices, then intra broadcast from the
		// root's local rank (identical rank on every device — lockstep).
		return []phase{
			{fabric: &fabricStage{name: "cxl-broadcast", steps: ceilLog2(c.devices), bytes: B}},
			{intra: c.intraReq(req, collective.Broadcast, B, req.Root%c.perDev)},
		}, nil
	case collective.Gather:
		// Intra gather to each device's local leader, then every non-root
		// device forwards its m*B block; the root device's ingress link
		// serializes the (D-1)*m*B total.
		return []phase{
			{intra: c.intraReq(req, collective.Gather, B, req.Root%c.perDev)},
			{fabric: &fabricStage{name: "cxl-gather", steps: 1, bytes: (D - 1) * m * B}},
		}, nil
	case collective.Reduce:
		// Intra reduce on each device, binomial combine across devices
		// with a controller reduce at every tree level.
		steps := ceilLog2(c.devices)
		return []phase{
			{intra: c.intraReq(req, collective.Reduce, B, req.Root%c.perDev)},
			{fabric: &fabricStage{name: "cxl-reduce", steps: steps, bytes: B, reduceSteps: steps}},
		}, nil
	default:
		return nil, fmt.Errorf("cxlpim: unsupported pattern %v", req.Pattern)
	}
}

func (c *CXLPIM) check(req collective.Request) error {
	if err := req.Validate(); err != nil {
		return fmt.Errorf("cxlpim: %w", err)
	}
	if req.Nodes != c.sys.DPUsPerChannel() {
		return fmt.Errorf("cxlpim: request spans %d DPUs, fabric hosts %d (%d devices x %d DPUs)",
			req.Nodes, c.sys.DPUsPerChannel(), c.devices, c.perDev)
	}
	return nil
}

// Collective implements backend.Backend: the hierarchical schedule runs
// phase by phase, intra-device phases on the device backend (answered from
// the plan cache when attached), fabric phases analytically.
func (c *CXLPIM) Collective(req collective.Request) (backend.Result, error) {
	if err := c.check(req); err != nil {
		return backend.Result{}, err
	}
	phases, err := c.decompose(req)
	if err != nil {
		return backend.Result{}, err
	}
	var bd metrics.Breakdown
	var t sim.Time
	for _, ph := range phases {
		if ph.intra != nil {
			res, err := c.dev.Collective(*ph.intra)
			if err != nil {
				return backend.Result{}, fmt.Errorf("cxlpim: %w", err)
			}
			t += res.Time
			bd.Merge(res.Breakdown)
			continue
		}
		d := c.fabricTime(ph.fabric)
		if c.tracer != nil && d > 0 {
			c.tracer.Emit(trace.Event{Kind: trace.KindHostStage, Tier: trace.TierNone,
				Name: ph.fabric.name, Start: int64(t), End: int64(t + d),
				Bytes: ph.fabric.bytes * int64(ph.fabric.steps), From: -1, To: -1})
		}
		t += d
		bd.Add(metrics.CXLLink, d)
	}
	return backend.Result{Time: t, Breakdown: bd}, nil
}
