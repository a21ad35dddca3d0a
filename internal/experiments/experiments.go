// Package experiments regenerates every table and figure of the paper's
// evaluation (Section III motivation and Section VI results). Each Fig* /
// Tab* function runs the corresponding experiment on the simulator and
// returns both structured results (asserted by tests and benchmarks) and a
// rendered table (printed by cmd/pimnetbench and recorded in
// EXPERIMENTS.md).
//
// Every sweep-shaped experiment fans its points out over the
// internal/sweep worker pool. The variadic sweep.Option parameters select
// the pool size, a shared compiled-plan cache, and a stats aggregate; with
// no options the sweep defaults apply (GOMAXPROCS workers, no cache).
// Results are bit-identical for every pool size: each point builds its own
// backends and networks, and tables are assembled from the index-ordered
// result slice after the pool drains.
package experiments

import (
	"fmt"
	"sync"

	"pimnet"
	"pimnet/internal/backend"
	"pimnet/internal/baselines"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/host"
	"pimnet/internal/hwcost"
	"pimnet/internal/machine"
	"pimnet/internal/metrics"
	"pimnet/internal/noc"
	"pimnet/internal/report"
	"pimnet/internal/roofline"
	"pimnet/internal/sim"
	"pimnet/internal/sweep"
	"pimnet/internal/workloads"
)

// WeakScalingBytes is the per-DPU payload of the scalability studies
// (Fig. 3/12: 32 KB messages).
const WeakScalingBytes = 32 << 10

// paperKinds are the paper's five designs in figure order (B, S, N, D, P).
var paperKinds = []pimnet.BackendKind{pimnet.Baseline, pimnet.IdealSoftware,
	pimnet.NDPBridge, pimnet.DIMMLink, pimnet.PIMnet}

func request(pat collective.Pattern, op collective.Op, nodes int) collective.Request {
	return collective.Request{Pattern: pat, Op: op,
		BytesPerNode: WeakScalingBytes, ElemSize: 4, Nodes: nodes}
}

// --- Fig. 2: roofline models ---

// RooflineResult carries the Fig. 2 slopes and curves.
type RooflineResult struct {
	PeakOpsPerSec float64
	BW            map[string]float64 // effective AllReduce bandwidth per design
	Curves        []roofline.Series
}

// Fig2Roofline measures the effective collective bandwidth of the four
// designs at 256 DPUs and sweeps the communication-roofline curves.
func Fig2Roofline() (RooflineResult, *report.Table, error) {
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		return RooflineResult{}, nil, err
	}
	b, _ := host.NewBaseline(sys)
	m, _ := host.NewMaxDRAM(sys)
	s, _ := host.NewIdeal(sys)
	p, perr := core.NewPIMnet(sys)
	if perr != nil {
		return RooflineResult{}, nil, perr
	}
	req := request(collective.AllReduce, collective.Sum, 256)
	// Peak: all 256 DPUs at one op per cycle.
	peak := sys.DPU.FreqHz / sys.DPU.AddCycles * 256
	res := RooflineResult{PeakOpsPerSec: peak, BW: map[string]float64{}}
	order := []backend.Backend{b, m, s, p}
	tbl := report.New("Fig. 2 — communication roofline slopes (AllReduce, 256 DPUs)",
		"design", "effective collective BW", "ridge intensity (ops/B)")
	intensities := roofline.LogSpace(0.25, 4096, 25)
	for _, be := range order {
		bw, err := roofline.EffectiveCollectiveBW(be, req)
		if err != nil {
			return RooflineResult{}, nil, err
		}
		res.BW[be.Name()] = bw
		res.Curves = append(res.Curves, roofline.Sweep(be.Name(), peak, bw, intensities, true))
		tbl.AddRow(be.Name(), report.GBps(bw), report.F(peak/bw))
	}
	return res, tbl, nil
}

// --- Fig. 3 / Fig. 12: collective scalability ---

// ScalingPoint is one (population, backend) sample of the weak-scaling
// studies, normalized to the baseline at the same population.
type ScalingPoint struct {
	DPUs    int
	Backend string
	Time    sim.Time
	Speedup float64 // baseline time / this time
}

// scalingCell is one population's contribution to a scaling study: its
// structured points plus its pre-rendered table row.
type scalingCell struct {
	points []ScalingPoint
	row    []string
}

// CollectiveScaling runs the weak-scaling study for one pattern across the
// given backends; Fig. 3 uses {Baseline, Software(Ideal), PIMnet} and
// Fig. 12 adds DIMM-Link and (for A2A) NDPBridge. Populations run as
// parallel sweep points.
func CollectiveScaling(pat collective.Pattern, op collective.Op, dpuCounts []int, names []string, opts ...sweep.Option) ([]ScalingPoint, *report.Table, error) {
	cells, _, err := sweep.Run(dpuCounts, func(ctx *sweep.Context, nDPU int) (scalingCell, error) {
		sys, err := config.Default().WithDPUs(nDPU)
		if err != nil {
			return scalingCell{}, err
		}
		req := request(pat, op, nDPU)
		var baseTime sim.Time
		cell := scalingCell{row: []string{fmt.Sprintf("%d", nDPU)}}
		for _, name := range names {
			kind, err := pimnet.ParseBackendKind(name)
			if err != nil {
				return scalingCell{}, err
			}
			be, err := pimnet.NewBackend(kind, sys, pimnet.WithPlanCache(ctx.Cache))
			if err != nil {
				return scalingCell{}, err
			}
			res, err := be.Collective(req)
			if err != nil {
				cell.row = append(cell.row, "n/a")
				cell.points = append(cell.points, ScalingPoint{DPUs: nDPU, Backend: name})
				continue
			}
			if name == "Baseline" {
				baseTime = res.Time
			}
			sp := 0.0
			if res.Time > 0 && baseTime > 0 {
				sp = float64(baseTime) / float64(res.Time)
			}
			cell.points = append(cell.points, ScalingPoint{DPUs: nDPU, Backend: name, Time: res.Time, Speedup: sp})
			cell.row = append(cell.row, fmt.Sprintf("%s (%.1fx)", res.Time, sp))
		}
		return cell, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New(fmt.Sprintf("Collective weak scaling — %v, %s per DPU", pat, report.Bytes(WeakScalingBytes)),
		append([]string{"DPUs"}, names...)...)
	var points []ScalingPoint
	for _, cell := range cells {
		points = append(points, cell.points...)
		tbl.AddRow(cell.row...)
	}
	return points, tbl, nil
}

// Fig3Scalability reproduces Fig. 3: AR and A2A scaling with Baseline,
// Software(Ideal) and PIMnet.
func Fig3Scalability(opts ...sweep.Option) (ar, a2a []ScalingPoint, tables []*report.Table, err error) {
	counts := []int{8, 16, 32, 64, 128, 256}
	names := []string{"Baseline", "Software(Ideal)", "PIMnet"}
	var t1, t2 *report.Table
	ar, t1, err = CollectiveScaling(collective.AllReduce, collective.Sum, counts, names, opts...)
	if err != nil {
		return
	}
	a2a, t2, err = CollectiveScaling(collective.AllToAll, collective.Sum, counts, names, opts...)
	if err != nil {
		return
	}
	t1.Title = "Fig. 3(a) — AllReduce scalability"
	t2.Title = "Fig. 3(b) — All-to-All scalability"
	tables = []*report.Table{t1, t2}
	return
}

// Fig12CollectiveScaling reproduces Fig. 12 with all five designs.
func Fig12CollectiveScaling(opts ...sweep.Option) (ar, a2a []ScalingPoint, tables []*report.Table, err error) {
	counts := []int{8, 16, 32, 64, 128, 256}
	var t1, t2 *report.Table
	ar, t1, err = CollectiveScaling(collective.AllReduce, collective.Sum, counts,
		[]string{"Baseline", "Software(Ideal)", "DIMM-Link", "PIMnet"}, opts...)
	if err != nil {
		return
	}
	a2a, t2, err = CollectiveScaling(collective.AllToAll, collective.Sum, counts,
		[]string{"Baseline", "Software(Ideal)", "NDPBridge", "DIMM-Link", "PIMnet"}, opts...)
	if err != nil {
		return
	}
	t1.Title = "Fig. 12(a) — AllReduce scalability (all designs)"
	t2.Title = "Fig. 12(b) — All-to-All scalability (all designs)"
	tables = []*report.Table{t1, t2}
	return
}

// --- Fig. 10 / Fig. 11: applications ---

// AppResult is one workload's outcome on every backend.
type AppResult struct {
	Workload string
	Reports  map[string]machine.Report // keyed by backend name; absent if unsupported
}

// Speedup returns backend b's speedup over the baseline (0 if missing).
func (a AppResult) Speedup(b string) float64 {
	base, ok := a.Reports["Baseline"]
	r, ok2 := a.Reports[b]
	if !ok || !ok2 || r.Total == 0 {
		return 0
	}
	return float64(base.Total) / float64(r.Total)
}

// appCell is one workload's sweep-point result for Fig. 10.
type appCell struct {
	res AppResult
	row []string
}

// suiteConfig is the figures' workload scope: the 256-DPU suite at seed 1.
func suiteConfig(scaled bool) workloads.SuiteConfig {
	return workloads.SuiteConfig{Nodes: 256, Seed: 1, Scaled: scaled}
}

// suites hold the figures' workload suites, paper-sized and scaled, each
// built at most once per process and shared by Fig. 10 and Fig. 11. Only
// the phase graphs are kept; runs read them and never modify them.
var suites = [2]func() ([]machine.Workload, error){
	sync.OnceValues(func() ([]machine.Workload, error) { return workloads.Suite(suiteConfig(false)) }),
	sync.OnceValues(func() ([]machine.Workload, error) { return workloads.Suite(suiteConfig(true)) }),
}

func sharedSuite(scaled bool) ([]machine.Workload, error) {
	if scaled {
		return suites[1]()
	}
	return suites[0]()
}

// Fig10Applications runs the eight workloads on all five backends.
// scaled selects the fast, reduced inputs (tests); the harness uses
// paper-sized inputs. Workloads run as parallel sweep points over the
// shared suite, and every point constructs its own backends and machines.
func Fig10Applications(scaled bool, opts ...sweep.Option) ([]AppResult, *report.Table, error) {
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		return nil, nil, err
	}
	suite, err := sharedSuite(scaled)
	if err != nil {
		return nil, nil, err
	}
	cells, _, err := sweep.Run(suite, func(ctx *sweep.Context, wl machine.Workload) (appCell, error) {
		cell := appCell{res: AppResult{Workload: wl.Name, Reports: map[string]machine.Report{}},
			row: []string{wl.Name}}
		for _, kind := range paperKinds {
			be, err := pimnet.NewBackend(kind, sys, pimnet.WithPlanCache(ctx.Cache))
			if err != nil {
				return appCell{}, err
			}
			m, err := machine.New(sys, be)
			if err != nil {
				return appCell{}, err
			}
			rep, err := m.Run(wl)
			if err != nil {
				cell.row = append(cell.row, "n/a")
				continue
			}
			cell.res.Reports[be.Name()] = rep
			cell.row = append(cell.row, fmt.Sprintf("%s (cf %s)",
				report.Speedup(cell.res.Speedup(be.Name())), report.Pct(rep.CommFraction())))
		}
		return cell, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Fig. 10 — application performance (speedup over Baseline; comm fraction)",
		"workload", "Baseline", "Software(Ideal)", "NDPBridge", "DIMM-Link", "PIMnet")
	var out []AppResult
	for _, cell := range cells {
		out = append(out, cell.res)
		tbl.AddRow(cell.row...)
	}
	return out, tbl, nil
}

// CommBreakdownRow is one Fig. 11 row: PIMnet's communication-time
// composition for a workload plus its communication speedup over the
// relevant prior-work design.
type CommBreakdownRow struct {
	Workload    string
	Reference   string // DIMM-Link, or NDPBridge for the A2A workloads
	PIMnetComm  sim.Time
	RefComm     sim.Time
	CommSpeedup float64
	Fractions   map[string]float64 // inter-bank/chip/rank/sync/mem shares
}

// commCell is one workload's sweep-point result for Fig. 11.
type commCell struct {
	res CommBreakdownRow
	row []string
}

// Fig11CommBreakdown reproduces the communication-time analysis. Workloads
// run as parallel sweep points, each against its own backend pair.
func Fig11CommBreakdown(scaled bool, opts ...sweep.Option) ([]CommBreakdownRow, *report.Table, error) {
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		return nil, nil, err
	}
	suite, err := sharedSuite(scaled)
	if err != nil {
		return nil, nil, err
	}
	comps := []metrics.Component{metrics.InterBank, metrics.InterChip, metrics.InterRank, metrics.Sync, metrics.Mem}
	cells, _, err := sweep.Run(suite, func(ctx *sweep.Context, wl machine.Workload) (commCell, error) {
		p, err := pimnet.NewBackend(pimnet.PIMnet, sys, pimnet.WithPlanCache(ctx.Cache))
		if err != nil {
			return commCell{}, err
		}
		refKind := pimnet.DIMMLink
		if wl.Name == "NTT" || wl.Name == "Join" {
			refKind = pimnet.NDPBridge
		}
		ref, err := pimnet.NewBackend(refKind, sys)
		if err != nil {
			return commCell{}, err
		}
		mp, _ := machine.New(sys, p)
		pr, err := mp.Run(wl)
		if err != nil {
			return commCell{}, err
		}
		mr, _ := machine.New(sys, ref)
		rr, err := mr.Run(wl)
		if err != nil {
			return commCell{}, err
		}
		row := CommBreakdownRow{Workload: wl.Name, Reference: ref.Name(),
			PIMnetComm: pr.Breakdown.CommTotal(), RefComm: rr.Breakdown.CommTotal(),
			Fractions: map[string]float64{}}
		if row.PIMnetComm > 0 {
			row.CommSpeedup = float64(row.RefComm) / float64(row.PIMnetComm)
		}
		cell := commCell{row: []string{wl.Name, ref.Name(), report.Speedup(row.CommSpeedup)}}
		for _, c := range comps {
			frac := 0.0
			if row.PIMnetComm > 0 {
				frac = float64(pr.Breakdown.Get(c)) / float64(row.PIMnetComm)
			}
			row.Fractions[c.String()] = frac
			cell.row = append(cell.row, report.Pct(frac))
		}
		cell.res = row
		return cell, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Fig. 11 — PIM communication breakdown (PIMnet) and speedup vs prior work",
		"workload", "ref", "comm speedup", "inter-bank", "inter-chip", "inter-rank", "sync", "mem")
	var rows []CommBreakdownRow
	for _, cell := range cells {
		rows = append(rows, cell.res)
		tbl.AddRow(cell.row...)
	}
	return rows, tbl, nil
}

// --- Fig. 13: flow control ---

// FlowControlResult carries the credit-vs-static comparison.
type FlowControlResult struct {
	ARCredit, ARStatic   sim.Time
	A2ACredit, A2AStatic sim.Time
}

// ARRatio returns static/credit for AllReduce (paper: ~1.0).
func (f FlowControlResult) ARRatio() float64 { return float64(f.ARStatic) / float64(f.ARCredit) }

// A2AReduction returns the fractional time reduction of static scheduling
// on All-to-All (paper: 18.7%).
func (f FlowControlResult) A2AReduction() float64 {
	return 1 - float64(f.A2AStatic)/float64(f.A2ACredit)
}

// flowPoint is one packet-NoC simulation of the flow-control studies (Fig.
// 13 and A4): a collective of WeakScalingBytes per DPU under one mode, on
// the Fig. 13 skewed compute-finish profile. It is comparable, so a study
// can key its distinct simulations on it.
type flowPoint struct {
	allToAll bool
	cfg      noc.Config
	mode     noc.Mode
}

// runFlowPoints simulates the points on the sweep pool and returns their
// finish times in point order.
func runFlowPoints(points []flowPoint, opts ...sweep.Option) ([]sim.Time, error) {
	finish, _, err := sweep.Run(points, func(_ *sweep.Context, p flowPoint) (sim.Time, error) {
		done := noc.SkewedFinishTimes(p.cfg.Nodes(), 100*sim.Microsecond, 20*sim.Microsecond, 42)
		simulate := noc.SimulateAllReduce
		if p.allToAll {
			simulate = noc.SimulateAllToAll
		}
		r, err := simulate(p.cfg, p.mode, done, WeakScalingBytes)
		return r.Finish, err
	}, opts...)
	return finish, err
}

// Fig13FlowControl runs both collectives under both flow-control policies
// on the packet-level network with a skewed compute-finish profile, as four
// points on the sweep pool.
func Fig13FlowControl(opts ...sweep.Option) (FlowControlResult, *report.Table, error) {
	cfg := noc.DefaultConfig(4, 8, 8)
	var points []flowPoint
	for _, allToAll := range []bool{false, true} {
		for _, m := range []noc.Mode{noc.CreditBased, noc.StaticScheduled} {
			points = append(points, flowPoint{allToAll: allToAll, cfg: cfg, mode: m})
		}
	}
	finish, err := runFlowPoints(points, opts...)
	if err != nil {
		return FlowControlResult{}, nil, err
	}
	res := FlowControlResult{ARCredit: finish[0], ARStatic: finish[1],
		A2ACredit: finish[2], A2AStatic: finish[3]}
	tbl := report.New("Fig. 13 — credit-based flow control vs PIM-controlled scheduling (256 DPUs)",
		"collective", "credit-based", "PIM-controlled", "static vs credit")
	tbl.AddRow("AllReduce", res.ARCredit.String(), res.ARStatic.String(),
		fmt.Sprintf("%+.1f%%", (res.ARRatio()-1)*100))
	tbl.AddRow("All-to-All", res.A2ACredit.String(), res.A2AStatic.String(),
		fmt.Sprintf("%.1f%% faster", res.A2AReduction()*100))
	return res, tbl, nil
}

// --- Fig. 14: bandwidth sensitivity ---

// BWPoint is one bandwidth-sweep sample.
type BWPoint struct {
	Param   float64 // swept value
	PIMnet  sim.Time
	DIMM    sim.Time
	Speedup float64 // DIMM-Link / PIMnet
}

// Fig14BankBandwidth sweeps the inter-bank channel bandwidth (Fig. 14a).
func Fig14BankBandwidth(opts ...sweep.Option) ([]BWPoint, *report.Table, error) {
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		return nil, nil, err
	}
	d, err := baselines.NewDIMMLink(sys)
	if err != nil {
		return nil, nil, err
	}
	req := request(collective.AllReduce, collective.Sum, 256)
	dres, err := d.Collective(req)
	if err != nil {
		return nil, nil, err
	}
	pts, _, err := sweep.Run([]float64{0.1, 0.2, 0.4, 0.7, 1.0},
		func(ctx *sweep.Context, gbps float64) (BWPoint, error) {
			p, err := core.NewPIMnet(sys)
			if err != nil {
				return BWPoint{}, err
			}
			p.WithPlanCache(ctx.Cache).Network().ScaleBankBandwidth(gbps * config.GBps)
			pres, err := p.Collective(req)
			if err != nil {
				return BWPoint{}, err
			}
			return BWPoint{Param: gbps, PIMnet: pres.Time, DIMM: dres.Time,
				Speedup: float64(dres.Time) / float64(pres.Time)}, nil
		}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Fig. 14(a) — AllReduce vs inter-bank channel bandwidth",
		"GB/s per channel", "PIMnet", "DIMM-Link", "speedup")
	for _, pt := range pts {
		tbl.AddRow(report.F(pt.Param), pt.PIMnet.String(), pt.DIMM.String(), report.Speedup(pt.Speedup))
	}
	return pts, tbl, nil
}

// Fig14GlobalBandwidth sweeps the inter-chip/inter-rank bandwidth scale
// (Fig. 14b), with the inter-bank tier fixed at 0.7 GB/s.
func Fig14GlobalBandwidth(opts ...sweep.Option) ([]BWPoint, *report.Table, error) {
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		return nil, nil, err
	}
	req := request(collective.AllReduce, collective.Sum, 256)
	pts, _, err := sweep.Run([]float64{0.25, 0.5, 1, 2, 4},
		func(ctx *sweep.Context, scale float64) (BWPoint, error) {
			p, err := core.NewPIMnet(sys)
			if err != nil {
				return BWPoint{}, err
			}
			p.WithPlanCache(ctx.Cache).Network().ScaleGlobalBandwidth(scale)
			pres, err := p.Collective(req)
			if err != nil {
				return BWPoint{}, err
			}
			// DIMM-Link's dedicated links scale with the same global budget.
			dsys := sys
			dsys.Net.RankBusBW *= scale
			d, err := baselines.NewDIMMLink(dsys)
			if err != nil {
				return BWPoint{}, err
			}
			dres, err := d.Collective(req)
			if err != nil {
				return BWPoint{}, err
			}
			return BWPoint{Param: scale, PIMnet: pres.Time, DIMM: dres.Time,
				Speedup: float64(dres.Time) / float64(pres.Time)}, nil
		}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Fig. 14(b) — AllReduce vs global (inter-chip/rank) bandwidth scale",
		"scale", "PIMnet", "DIMM-Link", "speedup")
	for _, pt := range pts {
		tbl.AddRow(report.F(pt.Param), pt.PIMnet.String(), pt.DIMM.String(), report.Speedup(pt.Speedup))
	}
	return pts, tbl, nil
}

// --- Fig. 15: alternative PIM compute ---

// AltPIMRow is one (workload, compute-scale) sample.
type AltPIMRow struct {
	Workload string
	Scale    float64
	Speedup  float64 // PIMnet over Baseline at that compute throughput
}

// Fig15AltPIM scales the PIM compute throughput to HBM-PIM and GDDR6-AiM
// class MAC rates and re-measures PIMnet's benefit on the two most
// compute-bound workloads (MLP, NTT). The (workload, scale) grid runs as
// parallel sweep points.
func Fig15AltPIM(scaled bool, opts ...sweep.Option) ([]AltPIMRow, *report.Table, error) {
	names := []string{"MLP", "NTT"}
	scales := []float64{1, 10, 180}
	type cell struct {
		name  string
		scale float64
	}
	var grid []cell
	for _, name := range names {
		for _, sc := range scales {
			grid = append(grid, cell{name, sc})
		}
	}
	rows, _, err := sweep.Run(grid, func(ctx *sweep.Context, c cell) (AltPIMRow, error) {
		sys, err := config.Default().WithDPUs(256)
		if err != nil {
			return AltPIMRow{}, err
		}
		sys.DPU.ComputeScale = c.scale
		wl, err := workloads.Named(c.name, suiteConfig(scaled))
		if err != nil {
			return AltPIMRow{}, err
		}
		b, _ := host.NewBaseline(sys)
		p, err := core.NewPIMnet(sys)
		if err != nil {
			return AltPIMRow{}, err
		}
		p.WithPlanCache(ctx.Cache)
		mb, _ := machine.New(sys, b)
		mp, _ := machine.New(sys, p)
		rb, err := mb.Run(wl)
		if err != nil {
			return AltPIMRow{}, err
		}
		rp, err := mp.Run(wl)
		if err != nil {
			return AltPIMRow{}, err
		}
		return AltPIMRow{Workload: c.name, Scale: c.scale, Speedup: machine.Speedup(rb, rp)}, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Fig. 15 — PIMnet benefit with alternative PIM compute",
		"workload", "UPMEM (1x)", "HBM-PIM (~10x)", "GDDR6-AiM (180x)")
	for i, name := range names {
		cells := []string{name}
		for j := range scales {
			cells = append(cells, report.Speedup(rows[i*len(scales)+j].Speedup))
		}
		tbl.AddRow(cells...)
	}
	return rows, tbl, nil
}

// --- Fig. 16: channel scaling ---

// ChannelPoint is one memory-channel-count sample.
type ChannelPoint struct {
	Channels int
	Speedup  float64 // PIMnet over Baseline
}

// Fig16ChannelScaling measures EMB_Synth speedup as channels grow.
func Fig16ChannelScaling(opts ...sweep.Option) ([]ChannelPoint, *report.Table, error) {
	type cell struct {
		pt  ChannelPoint
		row []string
	}
	cells, _, err := sweep.Run([]int{1, 2, 4, 8}, func(ctx *sweep.Context, ch int) (cell, error) {
		sys := config.Default()
		sys.Channels = ch
		wl, err := workloads.Named("EMB", suiteConfig(false))
		if err != nil {
			return cell{}, err
		}
		b, _ := host.NewBaseline(sys)
		p, err := core.NewPIMnet(sys)
		if err != nil {
			return cell{}, err
		}
		p.WithPlanCache(ctx.Cache)
		mb, _ := machine.New(sys, b)
		mp, _ := machine.New(sys, p)
		rb, err := mb.RunMultiChannel(wl)
		if err != nil {
			return cell{}, err
		}
		rp, err := mp.RunMultiChannel(wl)
		if err != nil {
			return cell{}, err
		}
		sp := machine.Speedup(rb, rp)
		return cell{pt: ChannelPoint{Channels: ch, Speedup: sp},
			row: []string{fmt.Sprintf("%d", ch), rb.Total.String(), rp.Total.String(), report.Speedup(sp)}}, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	tbl := report.New("Fig. 16 — EMB_Synth speedup vs memory channels",
		"channels", "Baseline", "PIMnet", "speedup")
	var pts []ChannelPoint
	for _, c := range cells {
		pts = append(pts, c.pt)
		tbl.AddRow(c.row...)
	}
	return pts, tbl, nil
}

// --- Fig. 17: multi-tenancy ---

// TenancyResult compares two spatially mapped tenants on the host path vs
// on PIMnet.
type TenancyResult struct {
	HostMakespan, PIMnetMakespan sim.Time
	Isolation                    float64 // host makespan / PIMnet makespan
}

// Fig17MultiTenancy runs two identical AllReduce-heavy tenants on disjoint
// channel halves.
func Fig17MultiTenancy() (TenancyResult, *report.Table, error) {
	half, err := config.Default().WithDPUs(128)
	if err != nil {
		return TenancyResult{}, nil, err
	}
	wl, err := workloads.MLP(workloads.Options{Nodes: 128, Seed: 1}, []int{512, 512, 512}, 4)
	if err != nil {
		return TenancyResult{}, nil, err
	}
	run := func(mk func(config.System) (backend.Backend, error)) (sim.Time, error) {
		bA, err := mk(half)
		if err != nil {
			return 0, err
		}
		bB, err := mk(half)
		if err != nil {
			return 0, err
		}
		mA, err := machine.New(half, bA)
		if err != nil {
			return 0, err
		}
		mB, err := machine.New(half, bB)
		if err != nil {
			return 0, err
		}
		rep, err := machine.RunTenants(mA, mB, wl, wl)
		if err != nil {
			return 0, err
		}
		return rep.Makespan, nil
	}
	hostMk, err := run(func(s config.System) (backend.Backend, error) { return host.NewBaseline(s) })
	if err != nil {
		return TenancyResult{}, nil, err
	}
	pimMk, err := run(func(s config.System) (backend.Backend, error) { return core.NewPIMnet(s) })
	if err != nil {
		return TenancyResult{}, nil, err
	}
	res := TenancyResult{HostMakespan: hostMk, PIMnetMakespan: pimMk,
		Isolation: float64(hostMk) / float64(pimMk)}
	tbl := report.New("Fig. 17 — two spatially mapped tenants (128 DPUs each)",
		"design", "makespan")
	tbl.AddRow("host-based communication", hostMk.String())
	tbl.AddRow("PIMnet (bandwidth isolated)", pimMk.String())
	tbl.AddRow("isolation benefit", report.Speedup(res.Isolation))
	return res, tbl, nil
}

// --- Section VI: hardware overhead ---

// HWOverhead evaluates the analytical area/power model.
func HWOverhead() (hwcost.Report, *report.Table) {
	r := hwcost.Evaluate()
	tbl := report.New("Hardware overhead (45nm analytical model)",
		"block", "area (mm^2)", "power (mW)", "notes")
	tbl.AddRow("PIMnet stop", report.F(r.Stop.AreaMM2), report.F(r.Stop.PowerMW),
		fmt.Sprintf("%.2f%% of bank area, %.1f%% of bank power",
			r.StopAreaOverheadPct, r.StopPowerOverheadPct))
	tbl.AddRow("conventional ring router", report.F(r.Router.AreaMM2), report.F(r.Router.PowerMW),
		fmt.Sprintf("%.0fx the PIMnet stop", r.RouterToStopRatio))
	tbl.AddRow("inter-chip switch", report.F(r.InterChipSwitch.AreaMM2),
		report.F(r.InterChipSwitch.PowerMW), "per buffer chip")
	return r, tbl
}

// Tab4TierTable renders Table IV for the default configuration.
func Tab4TierTable() *report.Table {
	tbl := report.New("Table IV — PIMnet tier parameters",
		"tier", "physical channel", "#ch", "width(b)", "GB/s per ch", "topology", "router")
	for _, row := range config.Default().TierTable() {
		tbl.AddRow(row.Tier, row.Physical, fmt.Sprintf("%d", row.Channels),
			fmt.Sprintf("%d", row.WidthBits), report.F(row.ChannelGBps), row.Topology, row.Router)
	}
	return tbl
}
