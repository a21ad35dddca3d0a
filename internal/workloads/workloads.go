// Package workloads expresses the paper's eight evaluation applications
// (Table VII) as machine phase graphs. Each constructor runs the real
// substrate algorithm (graph traversal, sparse multiply, NTT, table
// lookups, hash join) on its input to obtain the exact per-iteration
// operation counts and communication volumes, then emits the phases the
// PIM offload executes. Compute is backend-independent; the collective
// requests are what the evaluation varies.
package workloads

import (
	"fmt"
	"strings"

	"pimnet/internal/collective"
	"pimnet/internal/dpu"
	"pimnet/internal/embtab"
	"pimnet/internal/graphgen"
	"pimnet/internal/machine"
	"pimnet/internal/nttmath"
	"pimnet/internal/relational"
	"pimnet/internal/sparse"
)

// Options selects the execution scope.
type Options struct {
	Nodes int   // participating DPUs (the channel population)
	Seed  int64 // substrate generator seed
}

func (o Options) validate() error {
	if o.Nodes < 1 {
		return fmt.Errorf("workloads: %d nodes", o.Nodes)
	}
	return nil
}

// alignUp rounds n up to a multiple of m.
func alignUp(n, m int64) int64 {
	if m <= 0 {
		return n
	}
	return (n + m - 1) / m * m
}

// bfs builds the breadth-first-search workload over g: level-synchronous
// traversal with one AllReduce(Or) of the frontier bitmap per level
// (Table VII: log-gowalla, AR).
func bfs(opt Options, g *graphFacts) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	parts := graphgen.PartitionEdges(g.degreeSums, opt.Nodes)
	maxShare := float64(graphgen.MaxPartitionEdges(parts)) / float64(g.m)
	bitmapBytes := alignUp(int64((g.n+7)/8), 4)
	wl := machine.Workload{Name: "BFS"}
	for level, scanned := range g.scanned {
		busiest := int64(float64(scanned)*maxShare) + 1
		wl.Phases = append(wl.Phases, machine.Phase{
			Name: fmt.Sprintf("level-%d", level+1),
			Kernel: dpu.Kernel{
				Other:  4 * busiest, // frontier test, level set
				Loads:  2 * busiest,
				Stores: busiest,
				Adds:   int64(g.n/opt.Nodes) + 1, // local bitmap sweep
			},
			MRAMRandom: 2 * busiest, // neighbor bitmap probe + level write
			Collective: &collective.Request{Pattern: collective.AllReduce,
				Op: collective.Or, BytesPerNode: bitmapBytes, ElemSize: 4, Nodes: opt.Nodes},
		})
	}
	return wl, nil
}

// cc builds the connected-components workload over g: synchronous
// min-label propagation with one AllReduce(Min) of the label array per
// iteration.
func cc(opt Options, g *graphFacts) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	parts := graphgen.PartitionEdges(g.degreeSums, opt.Nodes)
	busiest := graphgen.MaxPartitionEdges(parts)
	labelBytes := int64(g.n) * 4
	wl := machine.Workload{Name: "CC"}
	wl.Phases = append(wl.Phases, machine.Phase{
		Name: "propagate",
		Kernel: dpu.Kernel{
			Other:  4 * busiest,
			Loads:  2 * busiest,
			Stores: busiest / 2,
		},
		MRAMRandom: 3 * busiest, // label read + compare + write-back per endpoint
		Collective: &collective.Request{Pattern: collective.AllReduce,
			Op: collective.Min, BytesPerNode: labelBytes, ElemSize: 4, Nodes: opt.Nodes},
		Repeat: g.iterations,
	})
	return wl, nil
}

// GEMV builds the matrix-vector workload: tensor-parallel column
// partitioning, one Reduce-Scatter of the partial output per layer
// (Table VII: 1024x64 and 2048x128; RS).
func GEMV(opt Options, rows, cols, layers int) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	if rows < 1 || cols < 1 || layers < 1 {
		return machine.Workload{}, fmt.Errorf("workloads: GEMV %dx%d x%d", rows, cols, layers)
	}
	muls := int64(rows) * int64(cols) / int64(opt.Nodes)
	if muls < 1 {
		muls = 1
	}
	wl := machine.Workload{Name: fmt.Sprintf("GEMV-%dx%d", rows, cols)}
	wl.Phases = append(wl.Phases, machine.Phase{
		Name: "gemv-layer",
		Kernel: dpu.Kernel{
			Muls:   muls,
			Adds:   muls,
			Loads:  2 * muls,
			Stores: int64(rows)/int64(opt.Nodes) + 1,
		},
		MRAMBytes: muls * 4, // streaming the weight slice
		Collective: &collective.Request{Pattern: collective.ReduceScatter,
			Op: collective.Sum, BytesPerNode: alignUp(int64(rows)*4, 4), ElemSize: 4, Nodes: opt.Nodes},
		Repeat: layers,
	})
	return wl, nil
}

// MLP builds the multi-layer-perceptron workload: one AllReduce of the
// activations per fully connected layer (Table VII: 256/512/1024 square
// layers; AR).
func MLP(opt Options, layerSizes []int, batch int) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	if len(layerSizes) == 0 || batch < 1 {
		return machine.Workload{}, fmt.Errorf("workloads: MLP needs layers and batch")
	}
	wl := machine.Workload{Name: "MLP"}
	for _, l := range layerSizes {
		if l < 1 {
			return machine.Workload{}, fmt.Errorf("workloads: layer size %d", l)
		}
		muls := int64(l) * int64(l) * int64(batch) / int64(opt.Nodes)
		if muls < 1 {
			muls = 1
		}
		wl.Phases = append(wl.Phases, machine.Phase{
			Name: fmt.Sprintf("fc-%d", l),
			Kernel: dpu.Kernel{
				Muls:   muls,
				Adds:   muls + int64(l)*int64(batch)/int64(opt.Nodes), // MAC + ReLU
				Loads:  2 * muls,
				Stores: int64(l) * int64(batch) / int64(opt.Nodes),
			},
			MRAMBytes: muls * 4,
			Collective: &collective.Request{Pattern: collective.AllReduce,
				Op: collective.Sum, BytesPerNode: alignUp(int64(l)*int64(batch)*4, 4),
				ElemSize: 4, Nodes: opt.Nodes},
		})
	}
	return wl, nil
}

// SpMV builds the sparse matrix-vector workload: DBCOO 2D partitioning with
// the paper's 32 vertical partitions; the per-block partial outputs are
// combined with Reduce-Scatter (Table VII). Only the tile counts of cfg's
// matrix are built, never the matrix itself.
func SpMV(opt Options, cfg sparse.Config, colBlocks int) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	if colBlocks < 1 || opt.Nodes%colBlocks != 0 {
		return machine.Workload{}, fmt.Errorf("workloads: %d column blocks must divide %d DPUs",
			colBlocks, opt.Nodes)
	}
	d, err := sparse.CountDBCOO(cfg, colBlocks, opt.Nodes/colBlocks)
	if err != nil {
		return machine.Workload{}, err
	}
	nnz := d.MaxPartNNZ()
	wl := machine.Workload{Name: "SpMV"}
	wl.Phases = append(wl.Phases, machine.Phase{
		Name: "spmv",
		Kernel: dpu.Kernel{
			Muls:   nnz,
			Adds:   nnz,
			Loads:  2 * nnz,
			Stores: nnz / 4,
			Other:  2 * nnz, // index decode
		},
		MRAMBytes:  nnz * 12, // COO triples streamed
		MRAMRandom: nnz / 8,  // x-vector gathers that miss WRAM
		Collective: &collective.Request{Pattern: collective.ReduceScatter,
			Op: collective.Sum, BytesPerNode: alignUp(d.PartialOutputBytes(), 4),
			ElemSize: 4, Nodes: opt.Nodes},
	})
	return wl, nil
}

// EMB builds the embedding-table lookup workload of DLRM: pooled gathers
// over a Cx-Ry partitioned table, one Reduce-Scatter of the pooled partial
// sums per batch (Table VII: pooling 8, batch 256).
func EMB(opt Options, table embtab.Table, part embtab.Partitioning) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	if part.DPUs() != opt.Nodes {
		return machine.Workload{}, fmt.Errorf("workloads: partitioning %v needs %d DPUs, scope has %d",
			part, part.DPUs(), opt.Nodes)
	}
	batch, err := embtab.GenerateBatch(table, opt.Seed)
	if err != nil {
		return machine.Workload{}, err
	}
	st, err := embtab.Analyze(table, part, batch)
	if err != nil {
		return machine.Workload{}, err
	}
	wl := machine.Workload{Name: "EMB"}
	wl.Phases = append(wl.Phases, machine.Phase{
		Name: "lookup-pool",
		Kernel: dpu.Kernel{
			Adds:  st.AccumOps,
			Loads: 2 * st.AccumOps,
			Other: st.LookupsPerDPU * 4,
		},
		MRAMRandom: st.LookupsPerDPU,
		Collective: &collective.Request{Pattern: collective.ReduceScatter,
			Op: collective.Sum, BytesPerNode: alignUp(st.PartialBytes, 4),
			ElemSize: 4, Nodes: opt.Nodes},
	})
	return wl, nil
}

// NTT builds the number-theoretic-transform workload: the 2D (Bailey)
// decomposition of an N = 2^logN transform with the inter-step transpose
// as All-to-All (Table VII: N = 2^16 as 256 x 256). Butterfly costs model
// 64-bit Goldilocks arithmetic emulated on the 32-bit DPU (4 partial
// multiplies per modular multiply).
func NTT(opt Options, logN int) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	if logN < 2 || logN%2 != 0 || logN > 32 {
		return machine.Workload{}, fmt.Errorf("workloads: logN=%d must be even in [2,32]", logN)
	}
	side := 1 << (logN / 2) // rows = cols = 2^(logN/2)
	if opt.Nodes > side {
		return machine.Workload{}, fmt.Errorf("workloads: %d DPUs exceed %d columns", opt.Nodes, side)
	}
	colsPerDPU := int64(side / opt.Nodes)
	bf := nttmath.ButterflyOps(side) * colsPerDPU
	totalBytes := int64(1) << logN * 8 // 8-byte residues
	perDPU := totalBytes / int64(opt.Nodes)
	computePhase := func(name string, twiddle bool) machine.Phase {
		k := dpu.Kernel{
			Muls:   4 * bf, // 64x64 modular multiply from 32-bit partials
			Adds:   6 * bf,
			Loads:  4 * bf,
			Stores: 2 * bf,
		}
		if twiddle {
			extra := int64(side) * colsPerDPU
			k.Muls += 4 * extra
			k.Loads += extra
		}
		return machine.Phase{Name: name, Kernel: k, MRAMBytes: perDPU}
	}
	step1 := computePhase("column-ntt", false)
	step1.Collective = &collective.Request{Pattern: collective.AllToAll,
		Op: collective.Sum, BytesPerNode: alignUp(perDPU, int64(opt.Nodes*4)),
		ElemSize: 4, Nodes: opt.Nodes}
	step2 := computePhase("row-ntt", true)
	return machine.Workload{Name: "NTT", Phases: []machine.Phase{step1, step2}}, nil
}

// Join builds the hash-join workload of [61]: global hash partitioning of
// the tuples (an All-to-All across all banks) followed by local build and
// probe (Table VII: 64M tuples, A2A).
func Join(opt Options, tuples int64) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	if tuples < int64(opt.Nodes) {
		return machine.Workload{}, fmt.Errorf("workloads: %d tuples under %d DPUs", tuples, opt.Nodes)
	}
	// Validate the partitioning semantics on a sampled relation: the
	// partitioned join must equal the monolithic one.
	sample := tuples
	if sample > 1<<14 {
		sample = 1 << 14
	}
	left, err := relational.Generate(int(sample), int32(sample/2+1), opt.Seed)
	if err != nil {
		return machine.Workload{}, err
	}
	right, err := relational.Generate(int(sample), int32(sample/2+1), opt.Seed+1)
	if err != nil {
		return machine.Workload{}, err
	}
	if _, err := relational.PartitionedHashJoin(left, right, opt.Nodes); err != nil {
		return machine.Workload{}, err
	}
	perDPU := tuples / int64(opt.Nodes)
	bytesPerDPU := alignUp(perDPU*8, int64(opt.Nodes*4))
	wl := machine.Workload{Name: "Join"}
	wl.Phases = append(wl.Phases, machine.Phase{
		Name: "partition",
		Kernel: dpu.Kernel{
			Muls:  perDPU, // multiplicative hash
			Other: 8 * perDPU,
			Loads: 2 * perDPU, Stores: 2 * perDPU,
		},
		MRAMBytes: perDPU * 8,
		Collective: &collective.Request{Pattern: collective.AllToAll,
			Op: collective.Sum, BytesPerNode: bytesPerDPU, ElemSize: 4, Nodes: opt.Nodes},
	}, machine.Phase{
		Name: "build-probe",
		Kernel: dpu.Kernel{
			Muls:  perDPU,
			Other: 12 * perDPU,
			Loads: 4 * perDPU, Stores: perDPU,
		},
		MRAMRandom: 8 * perDPU, // bucket walk: multiple MRAM probes per tuple
	})
	return wl, nil
}

// SuiteConfig sizes the full workload suite.
type SuiteConfig struct {
	Nodes int
	Seed  int64
	// Scaled selects reduced inputs (small graph/matrix/join) so unit tests
	// and quick runs stay fast; the benchmark harness uses the paper-sized
	// inputs.
	Scaled bool
}

// inputs is one SuiteConfig's resolved input parameters, read by the
// workload constructors. The graph facts are resolved on first use and
// kept, so BFS and CC of one Suite call read the same traversal.
type inputs struct {
	opt        Options
	scaled     bool
	rmat       graphgen.RMATConfig
	matrix     sparse.Config
	colBlocks  int
	embPart    embtab.Partitioning
	joinTuples int64
	graph      *graphFacts
}

func newInputs(cfg SuiteConfig) *inputs {
	in := &inputs{
		opt:        Options{Nodes: cfg.Nodes, Seed: cfg.Seed},
		scaled:     cfg.Scaled,
		rmat:       graphgen.LogGowalla(),
		matrix:     sparse.Config{Rows: 1 << 16, Cols: 1 << 16, NNZ: 2 << 20, Skew: 1, Seed: cfg.Seed},
		colBlocks:  32,
		embPart:    embtab.Partitioning{Cols: 8, Rows: cfg.Nodes / 8},
		joinTuples: int64(64) << 20,
	}
	if cfg.Scaled {
		in.rmat = graphgen.RMATConfig{Vertices: 4096, Edges: 20000, A: 0.57, B: 0.19, C: 0.19, Seed: cfg.Seed}
		in.matrix = sparse.Config{Rows: 4096, Cols: 4096, NNZ: 40000, Skew: 1, Seed: cfg.Seed}
		in.joinTuples = 1 << 20
	}
	if cfg.Nodes%in.colBlocks != 0 {
		in.colBlocks = cfg.Nodes
	}
	if cfg.Nodes%8 != 0 {
		in.embPart = embtab.Partitioning{Cols: 1, Rows: cfg.Nodes}
	}
	return in
}

// onGraph validates the scope, then runs a graph workload on the facts of
// the shared R-MAT graph. The paper graph's facts come from the process
// memo; any other graph is built and traversed on first use.
func (in *inputs) onGraph(build func(Options, *graphFacts) (machine.Workload, error)) (machine.Workload, error) {
	if err := in.opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	if in.graph == nil {
		var err error
		if in.rmat == graphgen.LogGowalla() {
			in.graph, err = paperGraph()
		} else {
			in.graph, err = traverse(in.rmat)
		}
		if err != nil {
			return machine.Workload{}, err
		}
	}
	return build(in.opt, in.graph)
}

// named is one entry of the workload table: a graph workload, which runs
// on the shared R-MAT graph's facts, or one that builds its own input.
type named struct {
	name  string
	graph func(Options, *graphFacts) (machine.Workload, error)
	build func(*inputs) (machine.Workload, error)
	seed  seedUse
}

// seedUse says at which input sizes a workload reads SuiteConfig.Seed.
type seedUse uint8

const (
	seedNever  seedUse = iota // every seed builds the same workload
	seedScaled                // only the scaled input reads the seed
	seedAlways                // both sizes read the seed
)

// table lists every named workload: the eight Table VII applications in
// suite order, then the PIMfused fused-layer CNN class, which Named
// resolves but Suite does not build. SpMV's matrix and EMB's batch read the
// seed at both sizes; a scaled graph reads it, while the paper graph's seed
// is fixed. Join samples seeded relations only to check the partitioned
// join, so its phases do not depend on the seed, and GEMV, MLP, NTT and
// PIMfused have no random input.
var table = [...]named{
	{name: "BFS", graph: bfs, seed: seedScaled},
	{name: "CC", graph: cc, seed: seedScaled},
	{name: "GEMV", build: func(in *inputs) (machine.Workload, error) { return GEMV(in.opt, 2048, 128, 8) }},
	{name: "MLP", build: func(in *inputs) (machine.Workload, error) { return MLP(in.opt, []int{256, 512, 1024}, 4) }},
	{name: "SpMV", seed: seedAlways,
		build: func(in *inputs) (machine.Workload, error) { return SpMV(in.opt, in.matrix, in.colBlocks) }},
	{name: "EMB", seed: seedAlways,
		build: func(in *inputs) (machine.Workload, error) { return EMB(in.opt, embtab.Synthetic(), in.embPart) }},
	{name: "NTT", build: func(in *inputs) (machine.Workload, error) { return NTT(in.opt, 16) }},
	{name: "Join", build: func(in *inputs) (machine.Workload, error) { return Join(in.opt, in.joinTuples) }},
	{name: "PIMfused", build: func(in *inputs) (machine.Workload, error) { return PIMfusedDefault(in.opt, in.scaled) }},
}

// suiteSize is the number of Table VII applications at the head of table.
const suiteSize = 8

func (w *named) run(in *inputs) (machine.Workload, error) {
	var wl machine.Workload
	var err error
	if w.graph != nil {
		wl, err = in.onGraph(w.graph)
	} else {
		wl, err = w.build(in)
	}
	if err != nil {
		return machine.Workload{}, fmt.Errorf("workloads: building %s: %w", w.name, err)
	}
	return wl, nil
}

// Suite builds all eight evaluation workloads with the paper's inputs
// (Table VII), or reduced ones when Scaled is set. The graph workloads,
// which share one graph's facts, build on one goroutine while the others
// (the SpMV tile counts among them) build on the caller's: a graph still to
// be traversed and the SpMV input are built at once, and only the graph
// goroutine touches the shared facts. The paper graph's facts come from
// the process memo, so only a process's first paper-sized Suite traverses
// it. The workloads come back in table order, and the error is the first
// one in table order, however the two goroutines finish.
func Suite(cfg SuiteConfig) ([]machine.Workload, error) {
	in := newInputs(cfg)
	out := make([]machine.Workload, suiteSize)
	errs := make([]error, suiteSize)
	build := func(graph bool) {
		for i := range table[:suiteSize] {
			if w := &table[i]; (w.graph != nil) == graph {
				out[i], errs[i] = w.run(in)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		build(true)
	}()
	build(false)
	<-done
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Names lists the canonical workload names Named resolves, in table order:
// the Table VII suite, then PIMfused.
func Names() []string {
	names := make([]string, len(table))
	for i, w := range table {
		names[i] = w.name
	}
	return names
}

// Canonical resolves a case-insensitive prefix of a workload name to its
// canonical name, trying names in table order. The empty name matches
// nothing.
func Canonical(name string) (string, bool) {
	if w := lookup(name); w != nil {
		return w.name, true
	}
	return "", false
}

func lookup(name string) *named {
	want := strings.ToLower(name)
	if want == "" {
		return nil
	}
	for i := range table {
		if strings.HasPrefix(strings.ToLower(table[i].name), want) {
			return &table[i]
		}
	}
	return nil
}

// ReadsSeed reports whether the workload Named resolves from name depends on
// SuiteConfig.Seed at the given size. When it does not, any two seeds build
// the same workload. An unknown name reads no seed.
func ReadsSeed(name string, scaled bool) bool {
	w := lookup(strings.TrimSpace(name))
	return w != nil && (w.seed == seedAlways || w.seed == seedScaled && scaled)
}

// Named builds one workload, resolved by Canonical after trimming spaces,
// and only that workload's inputs: a GEMV request generates no graph or
// matrix, and a paper-sized BFS or CC reads the paper graph's memo. A suite
// workload's phase graph is the one Suite builds.
func Named(name string, cfg SuiteConfig) (machine.Workload, error) {
	want := strings.TrimSpace(name)
	if want == "" {
		return machine.Workload{}, fmt.Errorf("workloads: empty workload name")
	}
	w := lookup(want)
	if w == nil {
		return machine.Workload{}, fmt.Errorf("workloads: unknown workload %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return w.run(newInputs(cfg))
}

// EMBProduction builds the three production-shaped embedding workloads
// (RM1, RM2, RM3 of [63]).
func EMBProduction(opt Options) ([]machine.Workload, error) {
	part := embtab.Partitioning{Cols: 8, Rows: opt.Nodes / 8}
	if opt.Nodes%8 != 0 {
		part = embtab.Partitioning{Cols: 1, Rows: opt.Nodes}
	}
	shapes := []struct {
		name  string
		table embtab.Table
	}{
		{"EMB-RM1", embtab.RM1()},
		{"EMB-RM2", embtab.RM2()},
		{"EMB-RM3", embtab.RM3()},
	}
	var out []machine.Workload
	for _, s := range shapes {
		wl, err := EMB(opt, s.table, part)
		if err != nil {
			return nil, err
		}
		wl.Name = s.name
		out = append(out, wl)
	}
	return out, nil
}
