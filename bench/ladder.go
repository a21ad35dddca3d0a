package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pimnet"
	"pimnet/internal/collective"
	"pimnet/internal/core"
	"pimnet/internal/embtab"
	"pimnet/internal/experiments"
	"pimnet/internal/graphgen"
	"pimnet/internal/machine"
	"pimnet/internal/metrics"
	"pimnet/internal/noc"
	"pimnet/internal/relational"
	"pimnet/internal/report"
	"pimnet/internal/serve"
	"pimnet/internal/sparse"
	"pimnet/internal/store"
	"pimnet/internal/sweep"
	"pimnet/internal/workloads"
)

// The layer ladder is the traced run's per-layer half: it calls each
// layer's public functions on seeded inputs, with a span around every call,
// and reduces the spans to per-layer metrics. The spans come from this
// file, around the calls into the layers; nothing inside the programs
// under test is instrumented.

// ladderSizes fixes the ladder's inputs and repetitions.
type ladderSizes struct {
	scaled     bool // reduced workload inputs instead of paper-sized ones
	reps       int  // repetitions of each cheap probe (median reported)
	storeBlobs int  // blobs written, read and scanned by the store probe
	serveCalls int  // in-process requests per serve probe
	rounds     int  // replay rounds per side of the tracing-overhead probe
}

var (
	fullLadder  = ladderSizes{reps: 5, storeBlobs: 200, serveCalls: 200, rounds: 5}
	smokeLadder = ladderSizes{scaled: true, reps: 1, storeBlobs: 8, serveCalls: 8, rounds: 1}
)

var (
	corePatterns = []collective.Pattern{collective.AllReduce, collective.AllToAll}
	coreDPUs     = []int{256, 2560}
)

// perLayer lists every per-layer metric of the traced run, grouped by the
// module that does the work.
var perLayer = func() []metricDef {
	ms := func(n string) metricDef { return metricDef{n, "ms", "lower"} }
	us := func(n string) metricDef { return metricDef{n, "us", "lower"} }
	defs := []metricDef{
		ms("workloads.suite_ms.full"), ms("workloads.suite_ms.scaled"),
		{"workloads.suite_alloc_mb.full", "MB", "lower"},
		ms("workloads.named_ms.GEMV"),
	}
	for _, w := range workloadNames {
		defs = append(defs, ms("workloads.named_scaled_ms."+w))
	}
	defs = append(defs,
		ms("graphgen.rmat_ms"), ms("graphgen.bfs_ms"), ms("graphgen.cc_ms"),
		ms("sparse.generate_ms"), ms("sparse.partition_ms"),
		ms("embtab.batch_ms"), ms("relational.join_ms"))
	for _, f := range figGroups {
		defs = append(defs, ms("experiments.fig_ms."+f))
	}
	defs = append(defs,
		metricDef{"sweep.points", "count", "lower"},
		metricDef{"sweep.plan_hit_ratio", "ratio", "higher"},
		us("machine.run_us.cold"), us("machine.run_us.warm"))
	for _, d := range []int{64, 256, 2560} {
		defs = append(defs, us(fmt.Sprintf("core.new_network_us.%d", d)))
	}
	for _, stage := range []string{"compile_us", "bind_us", "execute_us", "bind_allocs", "blueprint_kb"} {
		for _, p := range corePatterns {
			for _, d := range coreDPUs {
				m := us(fmt.Sprintf("core.%s.%v.%d", stage, p, d))
				switch stage {
				case "bind_allocs":
					m.unit = "count"
				case "blueprint_kb":
					m.unit = "KB"
				}
				defs = append(defs, m)
			}
		}
	}
	for _, p := range corePatterns {
		defs = append(defs, us(fmt.Sprintf("cxlpim.collective_us.%v.2560", p)))
	}
	defs = append(defs,
		ms("noc.sweep_ms.256"), ms("noc.sweep_ms.2560"),
		ms("store.open_ms"), us("store.get_hit_us"), us("store.get_miss_us"), us("store.put_us"),
		us("serve.decode_us"), us("serve.simulate_us.warm_plan"), us("serve.simulate_us.store_hit"),
		metricDef{"serve.plan_cache_hit_ratio", "ratio", "higher"},
		metricDef{"serve.store_hit_ratio", "ratio", "higher"},
		metricDef{"serve.coalesced", "count", "higher"},
		metricDef{"serve.rejected", "count", "lower"},
		ms("proc.cpu_ms_per_req"),
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
	return defs
}()

// ladder is one traced run's layer probes.
type ladder struct {
	rc    *runCtx
	rec   *recorder
	top   active
	sz    ladderSizes
	seed  int64
	m     map[string]measurement
	trace int64 // next trace identifier: one per layer
}

// runLadder runs every layer probe and returns the per-layer metrics.
func runLadder(rc *runCtx) (map[string]measurement, error) {
	l := &ladder{rc: rc, rec: rc.rec, top: rc.rec.start("ladder", rc.top, 0),
		sz: rc.size.ladder, seed: rc.seed, m: map[string]measurement{}, trace: 1000}
	defer l.top.end()
	suite, err := l.workloads()
	if err != nil {
		return nil, fmt.Errorf("workloads layer: %w", err)
	}
	// Nothing after this call keeps the suite alive, so the later probes
	// do not pay for collecting around its heap.
	if err := l.machine(suite); err != nil {
		return nil, fmt.Errorf("machine layer: %w", err)
	}
	probes := []struct {
		name string
		fn   func() error
	}{
		{"generators", l.generators},
		{"experiments", l.experiments},
		{"core", l.core},
		{"cxlpim", l.cxlpim},
		{"noc", l.noc},
		{"store", l.store},
		{"serve", l.serve},
		{"overhead", l.overhead},
	}
	for _, p := range probes {
		if err := rc.ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.fn(); err != nil {
			return nil, fmt.Errorf("%s layer: %w", p.name, err)
		}
	}
	return l.m, nil
}

// layer opens the span grouping one layer's probes, on its own trace row.
func (l *ladder) layer(name string) active {
	l.trace++
	return l.rec.start("layer."+name, l.top, l.trace)
}

// timed runs fn reps times, each call under its own span, and returns the
// median call duration.
func (l *ladder) timed(parent active, name string, reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		sp := l.rec.start(name, parent, l.trace)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, d)
	}
	return medianDuration(ds), nil
}

func (l *ladder) setMs(name string, d time.Duration, n int) {
	l.m[name] = measurement{float64(d) / float64(time.Millisecond), n}
}

func (l *ladder) setUs(name string, d time.Duration, n int) {
	l.m[name] = measurement{float64(d) / float64(time.Microsecond), n}
}

func (l *ladder) suiteConfig(scaled bool) workloads.SuiteConfig {
	return workloads.SuiteConfig{Nodes: 256, Seed: l.seed, Scaled: scaled}
}

// workloads times suite construction (the input generation every
// regeneration and every workload request pays) and Named lookups.
func (l *ladder) workloads() ([]machine.Workload, error) {
	sp := l.layer("workloads")
	defer sp.end()
	var suite []machine.Workload
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := l.timed(sp, "workloads.suite.full", 1, func() (err error) {
		suite, err = workloads.Suite(l.suiteConfig(l.sz.scaled))
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	l.setMs("workloads.suite_ms.full", d, 1)
	l.m["workloads.suite_alloc_mb.full"] = measurement{float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), 1}

	d, err = l.timed(sp, "workloads.suite.scaled", l.sz.reps, func() error {
		_, err := workloads.Suite(l.suiteConfig(true))
		return err
	})
	if err != nil {
		return nil, err
	}
	l.setMs("workloads.suite_ms.scaled", d, l.sz.reps)

	d, err = l.timed(sp, "workloads.named.GEMV", 1, func() error {
		_, err := workloads.Named("GEMV", l.suiteConfig(l.sz.scaled))
		return err
	})
	if err != nil {
		return nil, err
	}
	l.setMs("workloads.named_ms.GEMV", d, 1)
	for _, w := range workloadNames {
		d, err := l.timed(sp, "workloads.named_scaled."+w, 1, func() error {
			_, err := workloads.Named(w, l.suiteConfig(true))
			return err
		})
		if err != nil {
			return nil, err
		}
		l.setMs("workloads.named_scaled_ms."+w, d, 1)
	}
	return suite, nil
}

// generators times the substrate input generators the suite is built on,
// with the suite's own configurations.
func (l *ladder) generators() error {
	sp := l.layer("generators")
	defer sp.end()
	gcfg := graphgen.LogGowalla()
	scfg := sparse.Config{Rows: 1 << 16, Cols: 1 << 16, NNZ: 2 << 20, Skew: 1}
	if l.sz.scaled {
		gcfg = graphgen.RMATConfig{Vertices: 4096, Edges: 20000, A: 0.57, B: 0.19, C: 0.19}
		scfg = sparse.Config{Rows: 4096, Cols: 4096, NNZ: 40000, Skew: 1}
	}
	gcfg.Seed, scfg.Seed = l.seed, l.seed

	var g *graphgen.Graph
	d, err := l.timed(sp, "graphgen.rmat", 1, func() (err error) {
		g, err = graphgen.RMAT(gcfg)
		return err
	})
	if err != nil {
		return err
	}
	l.setMs("graphgen.rmat_ms", d, 1)
	if d, err = l.timed(sp, "graphgen.bfs", l.sz.reps, func() error {
		_, err := graphgen.BFS(g, 0)
		return err
	}); err != nil {
		return err
	}
	l.setMs("graphgen.bfs_ms", d, l.sz.reps)
	if d, err = l.timed(sp, "graphgen.cc", l.sz.reps, func() error {
		graphgen.ConnectedComponents(g)
		return nil
	}); err != nil {
		return err
	}
	l.setMs("graphgen.cc_ms", d, l.sz.reps)

	var mat *sparse.COO
	if d, err = l.timed(sp, "sparse.generate", 1, func() (err error) {
		mat, err = sparse.Generate(scfg)
		return err
	}); err != nil {
		return err
	}
	l.setMs("sparse.generate_ms", d, 1)
	if d, err = l.timed(sp, "sparse.partition", l.sz.reps, func() error {
		_, err := sparse.PartitionDBCOO(mat, 32, 8)
		return err
	}); err != nil {
		return err
	}
	l.setMs("sparse.partition_ms", d, l.sz.reps)

	if d, err = l.timed(sp, "embtab.batch", l.sz.reps, func() error {
		_, err := embtab.GenerateBatch(embtab.Synthetic(), l.seed)
		return err
	}); err != nil {
		return err
	}
	l.setMs("embtab.batch_ms", d, l.sz.reps)

	// The Join workload's correctness sample: two 16Ki-tuple relations,
	// hash-partitioned over 256 DPUs and joined.
	if d, err = l.timed(sp, "relational.join", l.sz.reps, func() error {
		left, err := relational.Generate(1<<14, 1<<13+1, l.seed)
		if err != nil {
			return err
		}
		right, err := relational.Generate(1<<14, 1<<13+1, l.seed+1)
		if err != nil {
			return err
		}
		_, err = relational.PartitionedHashJoin(left, right, 256)
		return err
	}); err != nil {
		return err
	}
	l.setMs("relational.join_ms", d, l.sz.reps)
	return nil
}

// machine times machine.Run over the whole suite on PIMnet and CXL-PIM:
// once on a fresh plan cache (cold: every collective compiles) and once
// more on the same cache (warm: every collective binds a cached plan).
func (l *ladder) machine(suite []machine.Workload) error {
	sp := l.layer("machine")
	defer sp.end()
	sys, err := pimnet.DefaultSystem().WithDPUs(256)
	if err != nil {
		return err
	}
	var cold, warm time.Duration
	for _, kind := range []pimnet.BackendKind{pimnet.PIMnet, pimnet.CXLPIM} {
		be, err := pimnet.NewBackend(kind, sys, pimnet.WithPlanCache(core.NewPlanCache()))
		if err != nil {
			return err
		}
		m, err := pimnet.NewMachine(sys, be)
		if err != nil {
			return err
		}
		for _, phase := range []struct {
			name string
			sum  *time.Duration
		}{{"machine.run.cold", &cold}, {"machine.run.warm", &warm}} {
			for _, wl := range suite {
				d, err := l.timed(sp, phase.name, 1, func() error {
					_, err := m.Run(wl)
					return err
				})
				if err != nil {
					return fmt.Errorf("%v %s: %w", kind, wl.Name, err)
				}
				*phase.sum += d
			}
		}
	}
	n := 2 * len(suite)
	l.setUs("machine.run_us.cold", cold, n)
	l.setUs("machine.run_us.warm", warm, n)
	return nil
}

// figGroups name the experiments.fig_ms metrics: the two application
// figures that dominate a regeneration, the other figures with their own
// cost, and the rest of the paper together.
var figGroups = []string{"10", "11", "13", "noc", "crossover", "ablations", "rest"}

// experiments replays a whole regeneration in process: the calls
// pimnetbench makes for every figure and table, sharing one plan cache and
// one sweep-stats aggregate, grouped into figGroups.
func (l *ladder) experiments() error {
	sp := l.layer("experiments")
	defer sp.end()
	var agg metrics.SweepStats
	sw := []sweep.Option{sweep.WithCache(core.NewPlanCache()), sweep.WithStats(&agg)}
	scaled := l.sz.scaled
	tables := func(_ any, t *report.Table, err error) error { return err }
	groups := map[string][]func() error{
		"10": {func() error { return tables(experiments.Fig10Applications(scaled, sw...)) }},
		"11": {func() error { return tables(experiments.Fig11CommBreakdown(scaled, sw...)) }},
		"13": {func() error { return tables(experiments.Fig13FlowControl()) }},
		"noc": {func() error {
			return tables(experiments.FigNocAdversarial(sw...))
		}},
		"crossover": {func() error {
			dpus, bytes := []int(nil), []int64(nil)
			if scaled {
				dpus, bytes = []int{64, 256}, []int64{4 << 10, 1 << 20}
			}
			return tables(experiments.FigCrossover(dpus, bytes, sw...))
		}},
		"ablations": {
			func() error { return tables(experiments.AblationFlatVsHierarchical(sw...)) },
			func() error { return tables(experiments.AblationSyncSensitivity(sw...)) },
			func() error { return tables(experiments.AblationWRAMStaging(sw...)) },
			func() error { return tables(experiments.AblationNocParameters(sw...)) },
			func() error { return tables(experiments.AblationInterChannel(sw...)) },
			func() error { _, err := experiments.AblationBaselineTranspose(); return err },
		},
		"rest": {
			func() error { return tables(experiments.Fig2Roofline()) },
			func() error { _, _, _, err := experiments.Fig3Scalability(sw...); return err },
			func() error { experiments.Tab4TierTable(); return nil },
			func() error { _, _, _, err := experiments.Fig12CollectiveScaling(sw...); return err },
			func() error { return tables(experiments.Fig14BankBandwidth(sw...)) },
			func() error { return tables(experiments.Fig14GlobalBandwidth(sw...)) },
			func() error { return tables(experiments.Fig15AltPIM(scaled, sw...)) },
			func() error { return tables(experiments.Fig16ChannelScaling(sw...)) },
			func() error { return tables(experiments.Fig17MultiTenancy()) },
			func() error { experiments.HWOverhead(); return nil },
		},
	}
	for _, g := range figGroups {
		d, err := l.timed(sp, "experiments.fig."+g, 1, func() error {
			for _, fn := range groups[g] {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.setMs("experiments.fig_ms."+g, d, 1)
	}
	l.m["sweep.points"] = measurement{float64(agg.Points), 1}
	l.m["sweep.plan_hit_ratio"] = measurement{agg.HitRate(), int(agg.CacheHits + agg.CacheMisses)}
	return nil
}

func collectiveReq(p collective.Pattern, dpus int) collective.Request {
	return collective.Request{Pattern: p, Op: collective.Sum, BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus}
}

// core times the plan pipeline of the paper's interconnect: network
// construction, compile, bind of a cached blueprint, and execute, plus
// bind's allocations and the heap a cached blueprint retains.
func (l *ladder) core() error {
	sp := l.layer("core")
	defer sp.end()
	reps := l.sz.reps
	for _, dpus := range []int{64, 256, 2560} {
		sys, err := pimnet.DefaultSystem().WithDPUs(dpus)
		if err != nil {
			return err
		}
		d, err := l.timed(sp, "core.new_network", reps, func() error {
			_, err := core.NewNetwork(sys)
			return err
		})
		if err != nil {
			return err
		}
		l.setUs(fmt.Sprintf("core.new_network_us.%d", dpus), d, reps)
	}
	for _, p := range corePatterns {
		for _, dpus := range coreDPUs {
			if err := l.corePoint(sp, p, dpus); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *ladder) corePoint(sp active, p collective.Pattern, dpus int) error {
	reps := l.sz.reps
	key := fmt.Sprintf("%v.%d", p, dpus)
	sys, err := pimnet.DefaultSystem().WithDPUs(dpus)
	if err != nil {
		return err
	}
	n, err := core.NewNetwork(sys)
	if err != nil {
		return err
	}
	req := collectiveReq(p, dpus)
	var plan *core.Plan
	d, err := l.timed(sp, "core.compile", reps, func() (err error) {
		plan, err = core.PlanFor(n, req)
		return err
	})
	if err != nil {
		return err
	}
	l.setUs("core.compile_us."+key, d, reps)

	// Retained heap of one cached blueprint: live heap after extracting it,
	// less live heap before, each after a full collection.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	bp, err := core.BlueprintOf(plan, n)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	l.m["core.blueprint_kb."+key] = measurement{(float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1024, 1}

	if d, err = l.timed(sp, "core.bind", reps, func() error {
		_, err := bp.Bind(n)
		return err
	}); err != nil {
		return err
	}
	l.setUs("core.bind_us."+key, d, reps)
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		if _, err := bp.Bind(n); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	l.m["core.bind_allocs."+key] = measurement{float64(m1.Mallocs-m0.Mallocs) / float64(reps), reps}

	if _, err := n.Execute(plan); err != nil { // sizes the executor's scratch
		return err
	}
	if d, err = l.timed(sp, "core.execute", reps, func() error {
		_, err := n.Execute(plan)
		return err
	}); err != nil {
		return err
	}
	l.setUs("core.execute_us."+key, d, reps)
	return nil
}

// cxlpim times warm collectives on the CXL-PIM backend at full machine
// size (intra-device plans come from the cache).
func (l *ladder) cxlpim() error {
	sp := l.layer("cxlpim")
	defer sp.end()
	sys, err := pimnet.DefaultSystem().WithDPUs(2560)
	if err != nil {
		return err
	}
	be, err := pimnet.NewBackend(pimnet.CXLPIM, sys, pimnet.WithPlanCache(core.NewPlanCache()))
	if err != nil {
		return err
	}
	for _, p := range corePatterns {
		req := collectiveReq(p, 2560)
		if _, err := be.Collective(req); err != nil { // compiles
			return err
		}
		d, err := l.timed(sp, "cxlpim.collective", l.sz.reps, func() error {
			_, err := be.Collective(req)
			return err
		})
		if err != nil {
			return err
		}
		l.setUs(fmt.Sprintf("cxlpim.collective_us.%v.2560", p), d, l.sz.reps)
	}
	return nil
}

// noc times the adversarial pattern sweep (every traffic pattern under
// both flow-control modes) on the 256- and 2560-node channel.
func (l *ladder) noc() error {
	sp := l.layer("noc")
	defer sp.end()
	for _, banks := range []int{8, 80} {
		cfg := noc.DefaultConfig(4, 8, banks)
		d, err := l.timed(sp, "noc.sweep", 1, func() error {
			_, _, err := noc.SweepPatterns(noc.AdversarialGrid(cfg, 32<<10, 2, l.seed))
			return err
		})
		if err != nil {
			return err
		}
		l.setMs(fmt.Sprintf("noc.sweep_ms.%d", cfg.Nodes()), d, 1)
	}
	return nil
}

// simulateBody is a representative /v1/simulate request and its rendered
// response: the payloads of the store and serve probes.
var simulateBody = []byte(`{"backend":"pimnet","pattern":"allreduce","bytes_per_node":32768,"dpus":256}`)

// store times the persistent store: write-behind puts, hit and miss reads,
// and opening (scanning) the populated directory.
func (l *ladder) store() error {
	sp := l.layer("store")
	defer sp.end()
	dir := filepath.Join(l.rc.tmp, "ladder-store")
	defer os.RemoveAll(dir)
	cfg := store.Config{Dir: dir, Fingerprint: "bench-ladder"}
	st, err := store.Open(cfg)
	if err != nil {
		return err
	}
	payload := bytes.Repeat(simulateBody, 8)
	key := func(i int) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(l.seed, i)))) }
	i := 0
	n := l.sz.storeBlobs
	d, err := l.timed(sp, "store.put", n, func() error {
		i++
		return st.Put(store.NSResults, key(i), payload)
	})
	if err != nil {
		return err
	}
	l.setUs("store.put_us", d, n)
	i = 0
	if d, err = l.timed(sp, "store.get_hit", n, func() error {
		i++
		if _, ok := st.Get(store.NSResults, key(i)); !ok {
			return fmt.Errorf("stored blob %d missing", i)
		}
		return nil
	}); err != nil {
		return err
	}
	l.setUs("store.get_hit_us", d, n)
	if d, err = l.timed(sp, "store.get_miss", n, func() error {
		i++
		if _, ok := st.Get(store.NSResults, key(i)); ok {
			return fmt.Errorf("blob %d was never stored", i)
		}
		return nil
	}); err != nil {
		return err
	}
	l.setUs("store.get_miss_us", d, n)
	reps := l.sz.reps
	if d, err = l.timed(sp, "store.open", reps, func() error {
		_, err := store.Open(cfg)
		return err
	}); err != nil {
		return err
	}
	l.setMs("store.open_ms", d, reps)
	return nil
}

// serve times the serving tier in process: request decoding, and a
// /v1/simulate round trip through the handler on a warm plan cache and on
// a result-store hit.
func (l *ladder) serve() error {
	sp := l.layer("serve")
	defer sp.end()
	items := collectiveStream(l.seed, collectiveShape{Requests: l.sz.serveCalls, Hot: 8, Pool: 64, HotShare: 0.5})
	i := 0
	d, err := l.timed(sp, "serve.decode", len(items), func() error {
		_, _, err := serve.DecodeSimulateRequest(bytes.NewReader(items[i].body))
		i++
		return err
	})
	if err != nil {
		return err
	}
	l.setUs("serve.decode_us", d, len(items))

	dir := filepath.Join(l.rc.tmp, "ladder-serve-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir, Fingerprint: "bench-ladder"})
	if err != nil {
		return err
	}
	for _, c := range []struct {
		metric string
		cfg    serve.Config
	}{
		{"serve.simulate_us.warm_plan", serve.Config{}},
		{"serve.simulate_us.store_hit", serve.Config{Store: st}},
	} {
		srv := serve.New(c.cfg)
		call := func() error {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(simulateBody)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("/v1/simulate: status %d: %s", rec.Code, rec.Body)
			}
			return nil
		}
		if err := call(); err != nil { // compiles, and fills the store
			return err
		}
		d, err := l.timed(sp, c.metric, l.sz.serveCalls, call)
		if err != nil {
			return err
		}
		l.setUs(c.metric, d, l.sz.serveCalls)
	}
	return nil
}

// overhead measures what the span recorder costs: rounds of the same
// collective replay (the workload's seeded hot set, eight times over,
// through the library on a warm plan cache) alternate between spans on and
// spans off, and the overhead is the ratio of their median round times.
func (l *ladder) overhead() error {
	sp := l.layer("overhead")
	defer sp.end()
	// The same draw collectiveStream makes first: its hot set.
	hot := distinctPoints(newDraws(l.seed, streamCollective), 32, map[collectivePoint]bool{})
	cache := pimnet.WithPlanCache(core.NewPlanCache())
	round := func(rec *recorder, parent active) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < 8; i++ {
			for _, p := range hot {
				csp := rec.start("overhead.collective", parent, l.trace)
				if _, err := libraryCollective(p, cache); err != nil {
					return 0, err
				}
				csp.end()
			}
		}
		return time.Since(start), nil
	}
	if _, err := round(nil, active{}); err != nil { // compiles every plan
		return err
	}
	var on, off []float64
	for i := 0; i < l.sz.rounds; i++ {
		d, err := round(l.rec, sp)
		if err != nil {
			return err
		}
		on = append(on, float64(d))
		if d, err = round(nil, active{}); err != nil {
			return err
		}
		off = append(off, float64(d))
	}
	l.m["trace.overhead_pct"] = measurement{(median(on)/median(off) - 1) * 100, len(on)}
	return nil
}
