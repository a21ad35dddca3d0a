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
// and share one plan cache, so repeated configurations reuse cached results
// instead of recompiling. Results are bit-identical to a serial
// run regardless of -workers. The packet-NoC studies run each distinct
// network once: Fig. 13 is four sweep points, and A4's twelve rows come
// from eight simulations, because its packet sizes at or above the 128 B
// All-to-All message size all simulate the same network. -stats counts
// sweep points, so it reports 4 for -fig 13 and 8 for -fig a4. The
// workload suite that Figs. 10 and 11 share builds its inputs on two
// goroutines (the R-MAT graph chain beside the rest) whatever -workers
// says; -workers bounds only the sweep pool.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

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
	if o.fig != "all" && !slices.Contains(figureNames(), o.fig) {
		return fmt.Errorf("unknown experiment %q (want %s, or all)", o.fig, strings.Join(figureNames(), ", "))
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
	for _, f := range figures {
		if o.fig != "all" && !slices.Contains(f.names, o.fig) {
			continue
		}
		tables, err := f.run(o, sw)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if o.stats {
		emit(report.SweepSummary(agg))
	}
	return nil
}

// figure is one experiment: the -fig names that select it and the run that
// renders its tables.
type figure struct {
	names []string
	run   runFunc
}

// runFunc renders one figure's tables; sw carries the invocation's shared
// worker pool, plan cache and stats aggregate.
type runFunc func(o options, sw []sweep.Option) ([]*report.Table, error)

// figures lists every experiment in -fig all order. Fig. 14 is two
// experiments under one name, and each of a1-a6 also answers to
// "ablations".
var figures = []figure{
	{[]string{"2"}, func(options, []sweep.Option) ([]*report.Table, error) {
		return one(experiments.Fig2Roofline())
	}},
	{[]string{"3"}, func(_ options, sw []sweep.Option) ([]*report.Table, error) {
		_, _, ts, err := experiments.Fig3Scalability(sw...)
		return ts, err
	}},
	{[]string{"4"}, func(options, []sweep.Option) ([]*report.Table, error) {
		return []*report.Table{experiments.Tab4TierTable()}, nil
	}},
	{[]string{"10"}, func(o options, sw []sweep.Option) ([]*report.Table, error) {
		return one(experiments.Fig10Applications(o.scaled, sw...))
	}},
	{[]string{"11"}, func(o options, sw []sweep.Option) ([]*report.Table, error) {
		return one(experiments.Fig11CommBreakdown(o.scaled, sw...))
	}},
	{[]string{"12"}, func(_ options, sw []sweep.Option) ([]*report.Table, error) {
		_, _, ts, err := experiments.Fig12CollectiveScaling(sw...)
		return ts, err
	}},
	{[]string{"13"}, swept(experiments.Fig13FlowControl)},
	{[]string{"14"}, swept(experiments.Fig14BankBandwidth)},
	{[]string{"14"}, swept(experiments.Fig14GlobalBandwidth)},
	{[]string{"15"}, func(o options, sw []sweep.Option) ([]*report.Table, error) {
		return one(experiments.Fig15AltPIM(o.scaled, sw...))
	}},
	{[]string{"16"}, swept(experiments.Fig16ChannelScaling)},
	{[]string{"17"}, func(options, []sweep.Option) ([]*report.Table, error) {
		return one(experiments.Fig17MultiTenancy())
	}},
	{[]string{"hw"}, func(options, []sweep.Option) ([]*report.Table, error) {
		_, t := experiments.HWOverhead()
		return []*report.Table{t}, nil
	}},
	// The adversarial pattern sweep on the packet-level NoC. Profiling
	// flags (-cpuprofile/-memprofile/-trace) already bracket run(), so
	// `pimnetbench -fig noc -cpuprofile cpu.pprof` profiles exactly the
	// flat packet core's hot loop.
	{[]string{"noc"}, swept(experiments.FigNocAdversarial)},
	// The DIMM-attached vs CXL-attached study on all six backends.
	// -scaled shrinks the grid to its corners for smoke runs.
	{[]string{"crossover"}, func(o options, sw []sweep.Option) ([]*report.Table, error) {
		dpus, bytes := []int(nil), []int64(nil)
		if o.scaled {
			dpus = []int{64, 256}
			bytes = []int64{4 << 10, 1 << 20}
		}
		return one(experiments.FigCrossover(dpus, bytes, sw...))
	}},
	{[]string{"a1", "ablations"}, swept(experiments.AblationFlatVsHierarchical)},
	{[]string{"a2", "ablations"}, swept(experiments.AblationSyncSensitivity)},
	{[]string{"a3", "ablations"}, swept(experiments.AblationWRAMStaging)},
	{[]string{"a4", "ablations"}, swept(experiments.AblationNocParameters)},
	{[]string{"a5", "ablations"}, swept(experiments.AblationInterChannel)},
	{[]string{"a6", "ablations"}, func(options, []sweep.Option) ([]*report.Table, error) {
		t, err := experiments.AblationBaselineTranspose()
		return []*report.Table{t}, err
	}},
	{[]string{"trace"}, runTraced},
}

// one adapts an experiment's (result, table, error) return to a figure's.
func one[R any](_ R, t *report.Table, err error) ([]*report.Table, error) {
	return []*report.Table{t}, err
}

// swept is the run of an experiment that takes only the sweep options.
func swept[R any](exp func(...sweep.Option) (R, *report.Table, error)) runFunc {
	return func(_ options, sw []sweep.Option) ([]*report.Table, error) { return one(exp(sw...)) }
}

// figureNames lists every -fig name of the figures table once, in table
// order.
func figureNames() []string {
	var names []string
	for _, f := range figures {
		for _, n := range f.names {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	}
	return names
}

// runTraced executes the four bulk collectives on a traced 256-DPU PIMnet
// (the paper's single-channel shape) and reports each run's latency next to
// the event volume it emitted, followed by the aggregate link-utilization
// tables. With -trace-out set, the combined timeline is also written as
// Chrome trace_event JSON for Perfetto. The four runs share one backend, so
// each restarts the executor clock at zero: in Perfetto their spans overlay
// on the same tracks rather than appearing end to end.
func runTraced(o options, _ []sweep.Option) ([]*report.Table, error) {
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
