// Command pimnetsim runs a single collective or workload on a chosen
// communication backend and prints the latency breakdown.
//
// Usage:
//
//	pimnetsim -backend pimnet -pattern allreduce -bytes 32768 -dpus 256
//	pimnetsim -backend baseline -workload CC -dpus 256
//	pimnetsim -backend cxlpim -workload PIMfused -dpus 256
//	pimnetsim -compare -pattern alltoall -bytes 32768 -dpus 256
//	pimnetsim -plan -pattern allreduce -dpus 64   # dump the compiled schedule
//	pimnetsim -faults fail-chip=1 -fault-seed 7 -pattern allreduce -dpus 256
//	pimnetsim -sweep -sweep-dpus 64,256 -sweep-bytes 4096,32768 -workers 4
//	pimnetsim -sweep -cpuprofile cpu.pprof -memprofile mem.pprof -trace trace.out
//	pimnetsim -trace-out out.json -trace-level link -pattern allreduce -dpus 256
//
// -trace-out records the run as Chrome trace_event JSON — one track per
// link, tier, and control stage — loadable at https://ui.perfetto.dev, and
// prints per-tier occupancy plus the most contended links afterwards.
// -trace-level selects phase-level or per-link-event detail. (The separate
// -trace flag is the Go runtime's execution trace, not the simulator's.)
//
// -sweep runs the selected backend and pattern over the cross product of
// -sweep-dpus and -sweep-bytes on a bounded goroutine pool (internal/sweep),
// sharing collective results across points through one plan cache. Results are
// deterministic regardless of -workers; the run ends with an execution and
// cache summary.
//
// The -faults spec is a comma-separated key=value list injecting
// deterministic faults into the pimnet backend: degrade=<n>,
// degrade-factor=<f>, fail-ring=<n>, fail-chip=<n>, straggler=<n>,
// straggler-factor=<f>, corrupt=<p>, syncdrop=<p>. -fault-seed selects the
// (reproducible) fault placement.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pimnet"
	"pimnet/internal/collective"
	"pimnet/internal/core"
	"pimnet/internal/metrics"
	"pimnet/internal/profiling"
	"pimnet/internal/report"
	"pimnet/internal/sweep"
	"pimnet/internal/trace"
	"pimnet/internal/version"
	"pimnet/internal/workloads"
)

// options collects the parsed command line.
type options struct {
	backend    string
	pattern    string
	bytes      int64
	dpus       int
	workload   string
	scaled     bool
	compare    bool
	plan       bool
	faults     string
	faultSeed  int64
	sweepMode  bool
	sweepDPUs  string
	sweepBytes string
	workers    int
	cpuprofile string
	memprofile string
	traceOut   string
	simTrace   string
	traceLevel string
}

func main() {
	var o options
	flag.StringVar(&o.backend, "backend", "pimnet", "baseline | ideal | ndpbridge | dimmlink | pimnet | cxlpim")
	flag.StringVar(&o.pattern, "pattern", "allreduce", "collective pattern")
	flag.Int64Var(&o.bytes, "bytes", 32<<10, "payload bytes per DPU")
	flag.IntVar(&o.dpus, "dpus", 256, "DPU population (power-of-two shapes of the default hierarchy)")
	flag.StringVar(&o.workload, "workload", "", "run a named workload instead (BFS, CC, GEMV, MLP, SpMV, EMB, NTT, Join, PIMfused)")
	flag.BoolVar(&o.scaled, "scaled", true, "reduced workload inputs")
	flag.BoolVar(&o.compare, "compare", false, "run all six backends")
	flag.BoolVar(&o.plan, "plan", false, "dump the compiled PIMnet schedule instead of executing")
	flag.StringVar(&o.faults, "faults", "", "fault spec to inject into the pimnet backend, e.g. fail-chip=1,corrupt=0.05")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for deterministic fault placement")
	flag.BoolVar(&o.sweepMode, "sweep", false, "sweep the pattern over -sweep-dpus x -sweep-bytes on a worker pool")
	flag.StringVar(&o.sweepDPUs, "sweep-dpus", "64,256", "comma-separated DPU populations for -sweep")
	flag.StringVar(&o.sweepBytes, "sweep-bytes", "4096,32768", "comma-separated payload sizes (bytes per DPU) for -sweep")
	flag.IntVar(&o.workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile (post-GC) to `file`")
	flag.StringVar(&o.traceOut, "trace", "", "write a runtime execution trace to `file`")
	flag.StringVar(&o.simTrace, "trace-out", "", "record the simulated run as Chrome trace_event JSON in `file` (Perfetto-loadable)")
	flag.StringVar(&o.traceLevel, "trace-level", "link", "simulator trace detail: phase | link")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, "pimnetsim:", err)
		os.Exit(2)
	}
	stop, err := profiling.Start(profiling.Config{
		CPUProfile: o.cpuprofile, MemProfile: o.memprofile, Trace: o.traceOut})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimnetsim:", err)
		os.Exit(1)
	}
	switch {
	case o.plan:
		err = dumpPlan(o.pattern, o.bytes, o.dpus)
	case o.sweepMode:
		err = runSweep(o)
	default:
		err = run(o)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimnetsim:", err)
		os.Exit(1)
	}
}

// validate rejects inconsistent flag combinations upfront with one-line
// errors, before any simulation state is built.
func validate(o options) error {
	if o.dpus < 1 {
		return fmt.Errorf("-dpus must be >= 1, got %d", o.dpus)
	}
	if o.bytes < 0 {
		return fmt.Errorf("-bytes must be >= 0, got %d", o.bytes)
	}
	if _, err := pimnet.ParseBackendKind(o.backend); err != nil {
		return err
	}
	if _, err := collective.ParsePattern(o.pattern); err != nil && o.workload == "" {
		return err
	}
	if _, ok := workloads.Canonical(o.workload); o.workload != "" && !ok {
		return fmt.Errorf("unknown workload %q (want a prefix of %s)", o.workload, strings.Join(workloads.Names(), ", "))
	}
	if o.plan && (o.compare || o.workload != "" || o.faults != "") {
		return fmt.Errorf("-plan dumps a schedule and cannot be combined with -compare, -workload, or -faults")
	}
	if o.faults != "" {
		if o.compare {
			return fmt.Errorf("-faults applies only to the pimnet backend; it cannot be combined with -compare")
		}
		if strings.ToLower(o.backend) != "pimnet" {
			return fmt.Errorf("-faults requires -backend pimnet, got %q", o.backend)
		}
		if _, err := pimnet.ParseFaultSpec(o.faults); err != nil {
			return err
		}
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	if o.simTrace != "" {
		if o.compare || o.sweepMode || o.plan {
			return fmt.Errorf("-trace-out records a single backend's run; it cannot be combined with -compare, -sweep, or -plan")
		}
		if _, err := pimnet.ParseTraceLevel(o.traceLevel); err != nil {
			return err
		}
	}
	if o.sweepMode {
		if o.plan || o.workload != "" || o.faults != "" || o.compare {
			return fmt.Errorf("-sweep runs one backend over a collective matrix; it cannot be combined with -plan, -workload, -faults, or -compare")
		}
		if _, err := parseIntList(o.sweepDPUs, "-sweep-dpus"); err != nil {
			return err
		}
		if _, err := parseIntList(o.sweepBytes, "-sweep-bytes"); err != nil {
			return err
		}
	}
	return nil
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s, flagName string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%s must name at least one value", flagName)
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%s: bad value %q: %v", flagName, part, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("%s: value %d must be >= 1", flagName, v)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(o options) error {
	sys, err := pimnet.DefaultSystem().WithDPUs(o.dpus)
	if err != nil {
		return err
	}
	// A traced run fans one event stream out to the Chrome exporter (written
	// to -trace-out at the end) and the link-utilization aggregator (printed
	// as occupancy tables after the run's own output).
	var chrome *trace.Chrome
	var util *trace.Util
	var topts []pimnet.Option
	if o.simTrace != "" {
		lvl, err := pimnet.ParseTraceLevel(o.traceLevel)
		if err != nil {
			return err
		}
		chrome = pimnet.NewChromeTrace()
		util = pimnet.NewLinkUtil()
		topts = []pimnet.Option{
			pimnet.WithTracer(pimnet.MultiTracer(chrome, util)),
			pimnet.WithTraceLevel(lvl),
		}
	}
	var targets []pimnet.Backend
	var faulty *core.PIMnet
	switch {
	case o.faults != "":
		spec, err := pimnet.ParseFaultSpec(o.faults)
		if err != nil {
			return err
		}
		spec.Seed = o.faultSeed
		faulty, err = pimnet.NewPIMnet(sys, append(topts, pimnet.WithFaults(spec))...)
		if err != nil {
			return err
		}
		fmt.Printf("fault model (seed %d): %v\n", o.faultSeed, faulty.FaultModel())
		targets = []pimnet.Backend{faulty}
	case o.compare:
		bes, err := pimnet.Backends(sys)
		if err != nil {
			return err
		}
		targets = bes
	default:
		kind, err := pimnet.ParseBackendKind(o.backend)
		if err != nil {
			return err
		}
		be, err := pimnet.NewBackend(kind, sys, topts...)
		if err != nil {
			return err
		}
		targets = []pimnet.Backend{be}
	}

	if o.workload != "" {
		err = runWorkload(sys, targets, o.workload, o.dpus, o.scaled)
	} else {
		err = runCollective(sys, targets, o)
	}
	if err != nil {
		return err
	}
	if faulty != nil {
		mode := "healthy"
		if faulty.DegradedMode() {
			mode = "degraded"
		}
		fmt.Printf("fault counters: %v, mode: %s\n", faulty.FaultCounters(), mode)
	}
	if chrome != nil {
		if err := chrome.WriteFile(o.simTrace); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s (load at https://ui.perfetto.dev)\n", chrome.Len(), o.simTrace)
		for _, tbl := range report.UtilTables(util.Summary(trace.DefaultTopN)) {
			fmt.Println(tbl)
		}
	}
	return nil
}

func runCollective(sys pimnet.System, targets []pimnet.Backend, o options) error {
	pat, err := collective.ParsePattern(o.pattern)
	if err != nil {
		return err
	}
	req := pimnet.Request{Pattern: pat, Op: pimnet.Sum,
		BytesPerNode: o.bytes, ElemSize: 4, Nodes: o.dpus}
	tbl := report.New(fmt.Sprintf("%v, %s per DPU, %d DPUs", pat, report.Bytes(o.bytes), o.dpus),
		"backend", "latency", "breakdown")
	for _, be := range targets {
		res, err := be.Collective(req)
		if err != nil {
			tbl.AddRow(be.Name(), "n/a", err.Error())
			continue
		}
		tbl.AddRow(be.Name(), res.Time.String(), res.Breakdown.String())
	}
	fmt.Println(tbl)
	return nil
}

func runWorkload(sys pimnet.System, targets []pimnet.Backend, name string, dpus int, scaled bool) error {
	wl, err := pimnet.NamedWorkload(name, dpus, 1, scaled)
	if err != nil {
		return err
	}
	tbl := report.New(fmt.Sprintf("workload %s, %d DPUs", wl.Name, dpus),
		"backend", "total", "compute", "communication", "comm fraction")
	for _, be := range targets {
		m, err := pimnet.NewMachine(sys, be)
		if err != nil {
			return err
		}
		rep, err := m.Run(wl)
		if err != nil {
			tbl.AddRow(be.Name(), "n/a", "", "", "")
			continue
		}
		tbl.AddRow(be.Name(), rep.Total.String(),
			rep.Breakdown.Get(metrics.Compute).String(),
			rep.Breakdown.CommTotal().String(),
			report.Pct(rep.CommFraction()))
	}
	fmt.Println(tbl)
	return nil
}

// newBackend builds exactly one backend, attaching the shared plan cache
// (which only the plan-compiling backends — PIMnet and CXL-PIM — use).
func newBackend(sys pimnet.System, name string, cache *core.PlanCache) (pimnet.Backend, error) {
	kind, err := pimnet.ParseBackendKind(name)
	if err != nil {
		return nil, err
	}
	return pimnet.NewBackend(kind, sys, pimnet.WithPlanCache(cache))
}

// runSweep fans the selected collective over the -sweep-dpus x -sweep-bytes
// matrix on a bounded worker pool. Every point owns its backend (and so its
// simulation engine); points share only the compiled-plan cache.
func runSweep(o options) error {
	pat, err := collective.ParsePattern(o.pattern)
	if err != nil {
		return err
	}
	dpus, err := parseIntList(o.sweepDPUs, "-sweep-dpus")
	if err != nil {
		return err
	}
	sizes, err := parseIntList(o.sweepBytes, "-sweep-bytes")
	if err != nil {
		return err
	}
	type point struct {
		dpus  int
		bytes int64
	}
	var grid []point
	for _, d := range dpus {
		for _, b := range sizes {
			grid = append(grid, point{dpus: d, bytes: int64(b)})
		}
	}

	type row struct {
		cols []string
	}
	rows, stats, err := sweep.Run(grid, func(ctx *sweep.Context, pt point) (row, error) {
		sys, err := pimnet.DefaultSystem().WithDPUs(pt.dpus)
		if err != nil {
			return row{}, err
		}
		be, err := newBackend(sys, o.backend, ctx.Cache)
		if err != nil {
			return row{}, err
		}
		res, err := be.Collective(pimnet.Request{Pattern: pat, Op: pimnet.Sum,
			BytesPerNode: pt.bytes, ElemSize: 4, Nodes: pt.dpus})
		if err != nil {
			return row{}, err
		}
		return row{cols: []string{fmt.Sprintf("%d", pt.dpus), report.Bytes(pt.bytes),
			res.Time.String(), res.Breakdown.String()}}, nil
	}, sweep.WithWorkers(o.workers), sweep.WithCache(core.NewPlanCache()))
	if err != nil {
		return err
	}

	tbl := report.New(fmt.Sprintf("%v sweep on %s", pat, o.backend),
		"DPUs", "bytes/DPU", "latency", "breakdown")
	for _, r := range rows {
		tbl.AddRow(r.cols...)
	}
	fmt.Println(tbl)
	fmt.Println(report.SweepSummary(stats))
	return nil
}

// dumpPlan prints the statically compiled PIMnet schedule for one
// collective — the artifact the host uploads at kernel launch (Fig. 5c/d).
func dumpPlan(pattern string, bytesPer int64, dpus int) error {
	pat, err := collective.ParsePattern(pattern)
	if err != nil {
		return err
	}
	sys, err := pimnet.DefaultSystem().WithDPUs(dpus)
	if err != nil {
		return err
	}
	net, err := core.NewNetwork(sys)
	if err != nil {
		return err
	}
	req := collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: bytesPer, ElemSize: 4, Nodes: dpus}
	plan, err := core.PlanFor(net, req)
	if err != nil {
		return err
	}
	fmt.Print(plan.Describe())
	v := plan.Volumes()
	fmt.Printf("scheduled volumes: inter-bank %s, inter-chip %s, inter-rank %s\n",
		report.Bytes(v.Bank), report.Bytes(v.Chip), report.Bytes(v.Rank))
	return nil
}
