package experiments

import (
	"fmt"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/host"
	"pimnet/internal/machine"
	"pimnet/internal/metrics"
	"pimnet/internal/noc"
	"pimnet/internal/report"
	"pimnet/internal/sim"
	"pimnet/internal/sweep"
	"pimnet/internal/workloads"
)

// This file holds the ablation studies DESIGN.md calls out — experiments
// beyond the paper's figures that probe the design choices the paper
// asserts: why the schedule is hierarchical (A1), how sensitive the design
// is to READY/START latency (A2), when WRAM staging starts to matter (A3),
// how the flow-control result depends on buffering and packetization (A4),
// and the paper's explicitly-open future-work question of extending PIMnet
// across memory channels (A5).

// FlatVsHierRow compares the Table V hierarchical AllReduce against a flat
// whole-population ring at one per-step overhead setting.
type FlatVsHierRow struct {
	StepOverhead  sim.Time
	Hierarchical  sim.Time
	FlatRing      sim.Time
	HierAdvantage float64 // flat / hier
}

// AblationFlatVsHierarchical (A1): the flat ring matches hierarchical
// bandwidth on paper, but needs 2*(P-1) = 510 globally synchronized steps
// instead of ~20; as per-step overhead (sync skew, bus turnaround, control
// distribution) grows, the hierarchy's shallow schedule wins decisively.
func AblationFlatVsHierarchical(opts ...sweep.Option) ([]FlatVsHierRow, *report.Table, error) {
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		return nil, nil, err
	}
	req := request(collective.AllReduce, collective.Sum, 256)
	overheads := []sim.Time{0, 10 * sim.Nanosecond, 50 * sim.Nanosecond,
		200 * sim.Nanosecond, 1 * sim.Microsecond}
	rows, _, err := sweep.Run(overheads, func(ctx *sweep.Context, oh sim.Time) (FlatVsHierRow, error) {
		net, err := core.NewNetwork(sys)
		if err != nil {
			return FlatVsHierRow{}, err
		}
		net.SetStepOverhead(int64(oh))
		hier, err := core.PlanVia(ctx.Cache, net, req)
		if err != nil {
			return FlatVsHierRow{}, err
		}
		hres, err := net.Execute(hier)
		if err != nil {
			return FlatVsHierRow{}, err
		}
		flat, err := core.FlatRingPlan(net, req)
		if err != nil {
			return FlatVsHierRow{}, err
		}
		fres, err := net.Execute(flat)
		if err != nil {
			return FlatVsHierRow{}, err
		}
		return FlatVsHierRow{StepOverhead: oh, Hierarchical: hres.Time, FlatRing: fres.Time,
			HierAdvantage: float64(fres.Time) / float64(hres.Time)}, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Ablation A1 — hierarchical vs flat-ring AllReduce (256 DPUs, 32 KiB)",
		"per-step overhead", "hierarchical", "flat ring", "flat/hier")
	for _, row := range rows {
		tbl.AddRow(row.StepOverhead.String(), row.Hierarchical.String(), row.FlatRing.String(),
			report.Speedup(row.HierAdvantage))
	}
	return rows, tbl, nil
}

// SyncRow is one sync-latency sensitivity sample.
type SyncRow struct {
	SyncLatency sim.Time
	ARTime      sim.Time
	SyncShare   float64
}

// AblationSyncSensitivity (A2): the paper estimates 15 ns worst-case
// READY/START propagation and argues it is negligible against a >1000-cycle
// collective. Sweep it three orders of magnitude to find where that stops
// holding.
func AblationSyncSensitivity(opts ...sweep.Option) ([]SyncRow, *report.Table, error) {
	lats := []sim.Time{15 * sim.Nanosecond, 150 * sim.Nanosecond,
		1500 * sim.Nanosecond, 15 * sim.Microsecond, 150 * sim.Microsecond}
	rows, _, err := sweep.Run(lats, func(ctx *sweep.Context, lat sim.Time) (SyncRow, error) {
		sys, err := config.Default().WithDPUs(256)
		if err != nil {
			return SyncRow{}, err
		}
		sys.Net.SyncRankLat = lat
		p, err := core.NewPIMnet(sys)
		if err != nil {
			return SyncRow{}, err
		}
		p.WithPlanCache(ctx.Cache)
		res, err := p.Collective(request(collective.AllReduce, collective.Sum, 256))
		if err != nil {
			return SyncRow{}, err
		}
		return SyncRow{SyncLatency: lat, ARTime: res.Time,
			SyncShare: res.Breakdown.Fraction(metrics.Sync)}, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Ablation A2 — READY/START latency sensitivity (AllReduce, 256 DPUs, 32 KiB)",
		"sync latency", "AllReduce time", "sync share")
	for _, row := range rows {
		tbl.AddRow(row.SyncLatency.String(), row.ARTime.String(), report.Pct(row.SyncShare))
	}
	return rows, tbl, nil
}

// WRAMRow is one scratchpad-staging sample.
type WRAMRow struct {
	PayloadBytes int64
	ARTime       sim.Time
	MemShare     float64
}

// AblationWRAMStaging (A3): collectives run out of the 64 KB WRAM; sweep
// the payload across the staging boundary and measure the Mem share —
// the overhead the paper observes for CC, EMB_Synth, SpMV and Join.
func AblationWRAMStaging(opts ...sweep.Option) ([]WRAMRow, *report.Table, error) {
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		return nil, nil, err
	}
	rows, _, err := sweep.Run([]int64{8, 16, 32, 64, 128, 256, 512},
		func(ctx *sweep.Context, kb int64) (WRAMRow, error) {
			p, err := core.NewPIMnet(sys)
			if err != nil {
				return WRAMRow{}, err
			}
			p.WithPlanCache(ctx.Cache)
			res, err := p.Collective(collective.Request{Pattern: collective.AllReduce,
				Op: collective.Sum, BytesPerNode: kb << 10, ElemSize: 4, Nodes: 256})
			if err != nil {
				return WRAMRow{}, err
			}
			return WRAMRow{PayloadBytes: kb << 10, ARTime: res.Time,
				MemShare: res.Breakdown.Fraction(metrics.Mem)}, nil
		}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Ablation A3 — WRAM staging (AllReduce, 256 DPUs)",
		"payload per DPU", "AllReduce time", "Mem share")
	for _, row := range rows {
		tbl.AddRow(report.Bytes(row.PayloadBytes), row.ARTime.String(), report.Pct(row.MemShare))
	}
	return rows, tbl, nil
}

// NocParamRow is one flow-control parameter sample.
type NocParamRow struct {
	BufferPackets int
	PacketBytes   int64
	A2AReduction  float64 // static scheduling's time reduction
}

// AblationNocParameters (A4): how the Fig. 13 All-to-All advantage of
// static scheduling depends on the credit-based router's buffer depth and
// the packetization granularity. Deeper buffers absorb contention; they
// are also exactly the hardware PIMnet exists to avoid paying for.
//
// Grid cells that simulate the same network share one simulation: each
// cell's configuration is reduced to its canonical form (noc.AllToAllConfig)
// and only distinct (configuration, mode) pairs run on the sweep pool. At
// WeakScalingBytes over 256 DPUs every message is 128 B, so the three
// packet sizes of a buffer depth are one network: 8 simulations, 12 rows.
func AblationNocParameters(opts ...sweep.Option) ([]NocParamRow, *report.Table, error) {
	var (
		rows   []NocParamRow
		cells  [][2]int // each row's credit and static point
		points []flowPoint
		index  = map[flowPoint]int{}
	)
	for _, buf := range []int{1, 2, 4, 8} {
		for _, pkt := range []int64{512, 1024, 4096} {
			cfg := noc.DefaultConfig(4, 8, 8)
			cfg.BufferPackets = buf
			cfg.PacketBytes = pkt
			cfg = noc.AllToAllConfig(cfg, WeakScalingBytes)
			var cell [2]int
			for j, m := range []noc.Mode{noc.CreditBased, noc.StaticScheduled} {
				p := flowPoint{allToAll: true, cfg: cfg, mode: m}
				i, ok := index[p]
				if !ok {
					i = len(points)
					index[p] = i
					points = append(points, p)
				}
				cell[j] = i
			}
			rows = append(rows, NocParamRow{BufferPackets: buf, PacketBytes: pkt})
			cells = append(cells, cell)
		}
	}
	finish, err := runFlowPoints(points, opts...)
	if err != nil {
		return nil, nil, err
	}
	for i, cell := range cells {
		rows[i].A2AReduction = 1 - float64(finish[cell[1]])/float64(finish[cell[0]])
	}
	tbl := report.New("Ablation A4 — flow-control gap vs buffering (A2A, 256 DPUs, 32 KiB)",
		"buffer (pkts)", "packet bytes", "static advantage")
	for _, row := range rows {
		tbl.AddRow(fmt.Sprintf("%d", row.BufferPackets), fmt.Sprintf("%d", row.PacketBytes),
			fmt.Sprintf("%.1f%%", row.A2AReduction*100))
	}
	return rows, tbl, nil
}

// InterChannelRow compares cross-channel combination strategies.
type InterChannelRow struct {
	Channels    int
	HostCombine sim.Time // channel-local PIMnet reduction + host combine (the paper's system)
	LinkCombine sim.Time // hypothetical inter-channel PIMnet link between buffer chips
	Benefit     float64
}

// AblationInterChannel (A5) explores the paper's open question ("It
// remains to be seen if PIMnet can be extended to inter-memory channel
// communication"): model a hypothetical dedicated link between the buffer
// chips of different channels, with the same 16.8 GB/s budget as the rank
// bus, and compare it against the shipped design where cross-channel
// reduction goes through the host.
func AblationInterChannel(opts ...sweep.Option) ([]InterChannelRow, *report.Table, error) {
	wl, err := workloads.MLP(workloads.Options{Nodes: 256, Seed: 1}, []int{1024}, 4)
	if err != nil {
		return nil, nil, err
	}
	rows, _, err := sweep.Run([]int{2, 4, 8}, func(ctx *sweep.Context, ch int) (InterChannelRow, error) {
		sys := config.Default()
		sys.Channels = ch
		p, err := core.NewPIMnet(sys)
		if err != nil {
			return InterChannelRow{}, err
		}
		p.WithPlanCache(ctx.Cache)
		m, err := machine.New(sys, p)
		if err != nil {
			return InterChannelRow{}, err
		}
		hostRep, err := m.RunMultiChannel(wl)
		if err != nil {
			return InterChannelRow{}, err
		}
		// Link variant: replace the host combine (up + CPU reduce + down)
		// with a ring Reduce-Scatter/AllGather between channel buffer chips
		// over the dedicated link.
		chanRep, err := m.Run(wl)
		if err != nil {
			return InterChannelRow{}, err
		}
		linkTotal := chanRep.Total
		for _, ph := range wl.Phases {
			if ph.Collective == nil || !ph.Collective.Pattern.Reduces() {
				continue
			}
			iters := int64(ph.Repeat)
			if iters < 1 {
				iters = 1
			}
			D := ph.Collective.BytesPerNode
			ring := 2 * D * int64(ch-1) / int64(ch)
			linkTotal += sim.Time(iters) * sim.TransferTime(ring, sys.Net.RankBusBW)
		}
		return InterChannelRow{Channels: ch, HostCombine: hostRep.Total, LinkCombine: linkTotal,
			Benefit: float64(hostRep.Total) / float64(linkTotal)}, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Ablation A5 — cross-channel combine: host relay vs hypothetical inter-channel link",
		"channels", "host combine", "inter-channel link", "benefit")
	for _, row := range rows {
		tbl.AddRow(fmt.Sprintf("%d", row.Channels), row.HostCombine.String(), row.LinkCombine.String(),
			report.Speedup(row.Benefit))
	}
	return rows, tbl, nil
}

// AblationBaselineTranspose quantifies the host-path layout-transposition
// penalty our Baseline charges (DESIGN.md §4): the same AllReduce with the
// SDK reshaping disabled, isolating how much of the baseline's cost is raw
// channel serialization vs software overhead.
func AblationBaselineTranspose() (*report.Table, error) {
	tbl := report.New("Ablation A6 — Baseline host-path overhead decomposition (AllReduce, 256 DPUs, 32 KiB)",
		"variant", "time", "vs full baseline")
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		return nil, err
	}
	req := request(collective.AllReduce, collective.Sum, 256)
	full, err := host.NewBaseline(sys)
	if err != nil {
		return nil, err
	}
	fres, err := full.Collective(req)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("measured baseline", fres.Time.String(), "1.00x")
	noT := sys
	noT.Host.TransposeFactor = 1
	nt, err := host.NewBaseline(noT)
	if err != nil {
		return nil, err
	}
	nres, err := nt.Collective(req)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("no layout transposition", nres.Time.String(),
		report.Speedup(float64(fres.Time)/float64(nres.Time)))
	ideal, err := host.NewIdeal(sys)
	if err != nil {
		return nil, err
	}
	ires, err := ideal.Collective(req)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("all software overhead removed", ires.Time.String(),
		report.Speedup(float64(fres.Time)/float64(ires.Time)))
	return tbl, nil
}
