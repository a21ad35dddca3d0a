// Command pimnetbench regenerates the paper's tables and figures on the
// simulator and prints them as aligned tables (or CSV).
//
// Usage:
//
//	pimnetbench              # run every experiment with paper-sized inputs
//	pimnetbench -fig 13      # one experiment
//	pimnetbench -fig noc     # adversarial NoC pattern sweep (2560 DPUs)
//	pimnetbench -fig crossover  # DIMM-attached vs CXL-attached PIM study
//	pimnetbench -fig ablations  # the A1-A6 design-choice studies
//	pimnetbench -scaled      # reduced inputs (seconds instead of minutes)
//	pimnetbench -csv         # machine-readable output
//	pimnetbench -workers 8   # bound the sweep worker pool (0 = GOMAXPROCS)
//	pimnetbench -stats       # append a sweep execution/cache summary
//	pimnetbench -cpuprofile cpu.pprof -memprofile mem.pprof -trace trace.out
//	pimnetbench -fig trace -trace-out out.json   # traced collectives + Perfetto JSON
//
// Experiment points fan out over a bounded goroutine pool (internal/sweep)
// and share one compiled-plan cache, so repeated configurations reuse cached
// plans instead of recompiling. Results are bit-identical to a serial
// run regardless of -workers. The packet-NoC studies run each distinct
// network once: Fig. 13 is four sweep points, and A4's twelve rows come
// from eight simulations, because its packet sizes at or above the 128 B
// All-to-All message size all simulate the same network. -stats counts
// sweep points, so it reports 4 for -fig 13 and 8 for -fig a4.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pimnet"
	"pimnet/internal/core"
	"pimnet/internal/experiments"
	"pimnet/internal/metrics"
	"pimnet/internal/profiling"
	"pimnet/internal/report"
	"pimnet/internal/sweep"
	"pimnet/internal/trace"
	"pimnet/internal/version"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run: 2, 3, 4 (Table IV), 10, 11, 12, 13, 14, 15, 16, 17, hw, noc, crossover, a1-a6, ablations, trace, or all")
	scaled := flag.Bool("scaled", false, "use reduced workload inputs for a quick run")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print sweep execution and plan-cache statistics")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to `file`")
	traceOut := flag.String("trace", "", "write a runtime execution trace to `file`")
	simTrace := flag.String("trace-out", "", "with -fig trace: write the simulated run as Chrome trace_event JSON to `file`")
	traceLevel := flag.String("trace-level", "link", "simulator trace detail for -fig trace: phase | link")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	stop, err := profiling.Start(profiling.Config{
		CPUProfile: *cpuprofile, MemProfile: *memprofile, Trace: *traceOut})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimnetbench:", err)
		os.Exit(1)
	}
	err = run(options{fig: *fig, scaled: *scaled, csv: *csv,
		workers: *workers, stats: *stats, out: os.Stdout,
		simTrace: *simTrace, traceLevel: *traceLevel})
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimnetbench:", err)
		os.Exit(1)
	}
}

// options carries the parsed command line into run.
type options struct {
	fig        string
	scaled     bool
	csv        bool
	workers    int
	stats      bool
	out        io.Writer
	simTrace   string
	traceLevel string
}

func run(o options) error {
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	if o.out == nil {
		o.out = os.Stdout
	}

	// All experiments of one invocation share a worker-pool bound, one
	// compiled-plan cache, and one stats aggregate.
	var agg metrics.SweepStats
	sw := []sweep.Option{
		sweep.WithWorkers(o.workers),
		sweep.WithCache(core.NewPlanCache()),
		sweep.WithStats(&agg),
	}

	emit := func(tables ...*report.Table) {
		for _, t := range tables {
			if o.csv {
				fmt.Fprint(o.out, t.CSV())
			} else {
				fmt.Fprintln(o.out, t)
			}
		}
	}
	want := func(name string) bool { return o.fig == "all" || o.fig == name }
	ran := false

	if want("2") {
		_, t, err := experiments.Fig2Roofline()
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("3") {
		_, _, ts, err := experiments.Fig3Scalability(sw...)
		if err != nil {
			return err
		}
		emit(ts...)
		ran = true
	}
	if want("4") {
		emit(experiments.Tab4TierTable())
		ran = true
	}
	if want("10") {
		_, t, err := experiments.Fig10Applications(o.scaled, sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("11") {
		_, t, err := experiments.Fig11CommBreakdown(o.scaled, sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("12") {
		_, _, ts, err := experiments.Fig12CollectiveScaling(sw...)
		if err != nil {
			return err
		}
		emit(ts...)
		ran = true
	}
	if want("13") {
		_, t, err := experiments.Fig13FlowControl(sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("14") {
		_, ta, err := experiments.Fig14BankBandwidth(sw...)
		if err != nil {
			return err
		}
		_, tb, err := experiments.Fig14GlobalBandwidth(sw...)
		if err != nil {
			return err
		}
		emit(ta, tb)
		ran = true
	}
	if want("15") {
		_, t, err := experiments.Fig15AltPIM(o.scaled, sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("16") {
		_, t, err := experiments.Fig16ChannelScaling(sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("17") {
		_, t, err := experiments.Fig17MultiTenancy()
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("hw") {
		_, t := experiments.HWOverhead()
		emit(t)
		ran = true
	}
	if want("noc") {
		// The adversarial pattern sweep on the packet-level NoC. Profiling
		// flags (-cpuprofile/-memprofile/-trace) already bracket run(), so
		// `pimnetbench -fig noc -cpuprofile cpu.pprof` profiles exactly the
		// flat packet core's hot loop.
		_, t, err := experiments.FigNocAdversarial(sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("crossover") {
		// The DIMM-attached vs CXL-attached study on all six backends.
		// -scaled shrinks the grid to its corners for smoke runs.
		dpus, bytes := []int(nil), []int64(nil)
		if o.scaled {
			dpus = []int{64, 256}
			bytes = []int64{4 << 10, 1 << 20}
		}
		_, t, err := experiments.FigCrossover(dpus, bytes, sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("ablations") || want("a1") {
		_, t, err := experiments.AblationFlatVsHierarchical(sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("ablations") || want("a2") {
		_, t, err := experiments.AblationSyncSensitivity(sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("ablations") || want("a3") {
		_, t, err := experiments.AblationWRAMStaging(sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("ablations") || want("a4") {
		_, t, err := experiments.AblationNocParameters(sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("ablations") || want("a5") {
		_, t, err := experiments.AblationInterChannel(sw...)
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("ablations") || want("a6") {
		t, err := experiments.AblationBaselineTranspose()
		if err != nil {
			return err
		}
		emit(t)
		ran = true
	}
	if want("trace") {
		ts, err := runTraced(o)
		if err != nil {
			return err
		}
		emit(ts...)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", o.fig)
	}
	if o.stats {
		emit(report.SweepSummary(agg))
	}
	return nil
}

// runTraced executes the four bulk collectives on a traced 256-DPU PIMnet
// (the paper's single-channel shape) and reports each run's latency next to
// the event volume it emitted, followed by the aggregate link-utilization
// tables. With -trace-out set, the combined timeline is also written as
// Chrome trace_event JSON for Perfetto. The four runs share one backend, so
// each restarts the executor clock at zero: in Perfetto their spans overlay
// on the same tracks rather than appearing end to end.
func runTraced(o options) ([]*report.Table, error) {
	lvl, err := pimnet.ParseTraceLevel(o.traceLevel)
	if err != nil {
		return nil, err
	}
	sys, err := pimnet.DefaultSystem().WithDPUs(256)
	if err != nil {
		return nil, err
	}
	chrome := pimnet.NewChromeTrace()
	util := pimnet.NewLinkUtil()
	p, err := pimnet.NewPIMnet(sys,
		pimnet.WithTracer(pimnet.MultiTracer(chrome, util)),
		pimnet.WithTraceLevel(lvl))
	if err != nil {
		return nil, err
	}
	tbl := report.New("Traced collectives (PIMnet, 256 DPUs, 32 KiB per DPU)",
		"pattern", "latency", "events emitted")
	for _, pat := range []pimnet.Pattern{
		pimnet.AllReduce, pimnet.ReduceScatter, pimnet.AllGather, pimnet.AllToAll,
	} {
		before := chrome.Len()
		res, err := p.Collective(pimnet.Request{Pattern: pat, Op: pimnet.Sum,
			BytesPerNode: 32 << 10, ElemSize: 4, Nodes: 256})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprint(pat), res.Time.String(), fmt.Sprintf("%d", chrome.Len()-before))
	}
	tables := append([]*report.Table{tbl}, report.UtilTables(util.Summary(trace.DefaultTopN))...)
	if o.simTrace != "" {
		if err := chrome.WriteFile(o.simTrace); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.out, "trace: %d events -> %s (load at https://ui.perfetto.dev)\n",
			chrome.Len(), o.simTrace)
	}
	return tables, nil
}
