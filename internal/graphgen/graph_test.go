package graphgen

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := RMAT(RMATConfig{Vertices: 1024, Edges: 8192, A: 0.57, B: 0.19, C: 0.19, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRMATValidation(t *testing.T) {
	bad := []RMATConfig{
		{Vertices: 1, Edges: 10, A: 0.5, B: 0.2, C: 0.2},
		{Vertices: 16, Edges: 0, A: 0.5, B: 0.2, C: 0.2},
		{Vertices: 16, Edges: 10, A: 0, B: 0.2, C: 0.2},
		{Vertices: 16, Edges: 10, A: 0.6, B: 0.3, C: 0.2},
	}
	for i, cfg := range bad {
		if _, err := RMAT(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRMATStructure(t *testing.T) {
	g := smallGraph(t)
	if g.N != 1024 {
		t.Fatalf("N = %d", g.N)
	}
	if g.M() == 0 || g.M() > 2*8192 {
		t.Fatalf("M = %d", g.M())
	}
	// CSR invariants.
	if g.Offsets[0] != 0 || g.Offsets[g.N] != g.M() {
		t.Fatal("offsets do not bracket the edge array")
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			t.Fatal("offsets not monotone")
		}
	}
	// Symmetry: every edge has its reverse.
	adj := make(map[[2]int32]bool)
	for v := 0; v < g.N; v++ {
		for i, u := range g.Neighbors(v) {
			if i > 0 && u <= g.Neighbors(v)[i-1] {
				t.Fatalf("vertex %d: neighbors not strictly increasing at %d", v, i)
			}
			if u == int32(v) {
				t.Fatal("self loop survived")
			}
			adj[[2]int32{int32(v), u}] = true
		}
	}
	for e := range adj {
		if !adj[[2]int32{e[1], e[0]}] {
			t.Fatalf("edge %v has no reverse", e)
		}
	}
}

// TestRMATFootprint pins the generator's footprint: the CSR graph plus one
// packed key per draw as scratch.
func TestRMATFootprint(t *testing.T) {
	cfg := RMATConfig{Vertices: 4096, Edges: 20000, A: 0.57, B: 0.19, C: 0.19, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RMAT(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	csr := uint64(8*(cfg.Vertices+1)) + uint64(8*cfg.Edges) // offsets, both directions of every draw
	// The slack covers the RNG state and the allocator's page rounding.
	if got, want := after.TotalAlloc-before.TotalAlloc, csr+uint64(8*cfg.Edges)+32<<10; got > want {
		t.Errorf("allocated %d bytes, want at most %d", got, want)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := smallGraph(t)
	b := smallGraph(t)
	if a.M() != b.M() {
		t.Fatal("same seed, different graphs")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed, different adjacency")
		}
	}
	c, _ := RMAT(RMATConfig{Vertices: 1024, Edges: 8192, A: 0.57, B: 0.19, C: 0.19, Seed: 8})
	if c.M() == a.M() {
		// Edge counts can coincide, but adjacency should differ somewhere.
		same := true
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// R-MAT with a=0.57 must produce a heavy tail: max degree far above
	// the average.
	g := smallGraph(t)
	avg := float64(g.M()) / float64(g.N)
	var max int64
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	if float64(max) < 5*avg {
		t.Fatalf("degree distribution not skewed: max %d, avg %.1f", max, avg)
	}
}

func TestBFSCorrectness(t *testing.T) {
	g := smallGraph(t)
	res, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Level consistency: every edge spans at most one level.
	for v := 0; v < g.N; v++ {
		lv := res.Levels[v]
		if lv < 0 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			lu := res.Levels[u]
			if lu < 0 {
				t.Fatalf("vertex %d reached but neighbor %d not", v, u)
			}
			if lu > lv+1 || lv > lu+1 {
				t.Fatalf("edge (%d,%d) spans levels %d -> %d", v, u, lv, lu)
			}
		}
	}
	// Frontier sizes sum to reached vertices.
	var sum int64
	for _, f := range res.FrontierSizes {
		sum += f
	}
	if sum != res.Reached {
		t.Fatalf("frontier sum %d != reached %d", sum, res.Reached)
	}
	if res.Levels[0] != 0 {
		t.Fatal("source level != 0")
	}
	if _, err := BFS(g, -1); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestConnectedComponentsCorrectness(t *testing.T) {
	g := smallGraph(t)
	cc := ConnectedComponents(g)
	// Every edge joins same-labeled vertices after convergence.
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if cc.Labels[u] != cc.Labels[v] {
				t.Fatalf("edge (%d,%d) crosses components", v, u)
			}
		}
	}
	if cc.Components < 1 || cc.Components > g.N {
		t.Fatalf("components = %d", cc.Components)
	}
	if cc.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
	if cc.Changed[len(cc.Changed)-1] != 0 {
		t.Fatal("did not converge")
	}
	// Cross-check with BFS reachability: vertices in one BFS tree share a label.
	bfs, _ := BFS(g, 0)
	for v := 0; v < g.N; v++ {
		if bfs.Levels[v] >= 0 && cc.Labels[v] != cc.Labels[0] {
			t.Fatalf("vertex %d reachable from 0 but in another component", v)
		}
	}
}

func TestPartitionEdges(t *testing.T) {
	g := smallGraph(t)
	for _, p := range []int{1, 4, 64} {
		parts := PartitionEdges(g.Offsets, p)
		if len(parts) != p {
			t.Fatalf("got %d partitions, want %d", len(parts), p)
		}
		var edgeSum int64
		lo := 0
		for _, pt := range parts {
			if pt.Lo != lo {
				t.Fatal("partitions not contiguous")
			}
			lo = pt.Hi
			edgeSum += pt.Edges
		}
		if lo != g.N {
			t.Fatal("partitions do not cover all vertices")
		}
		if edgeSum != g.M() {
			t.Fatalf("partition edges %d != M %d", edgeSum, g.M())
		}
	}
	if PartitionEdges(g.Offsets, 0)[0].Hi != g.N {
		t.Fatal("p<1 should clamp to one partition")
	}
	if m := MaxPartitionEdges(PartitionEdges(g.Offsets, 4)); m <= 0 || m > g.M() {
		t.Fatalf("max partition edges = %d", m)
	}
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// degreeWalkPartition is the partition PartitionEdges computes, taken by
// walking the graph's degrees vertex by vertex: the test oracle for the
// prefix-sum form.
func degreeWalkPartition(g *Graph, p int) []Partition {
	if p < 1 {
		p = 1
	}
	parts := make([]Partition, 0, p)
	lo := 0
	var cum, lastCum int64
	for i := 1; i <= p; i++ {
		target := g.M() * int64(i) / int64(p)
		hi := lo
		maxHi := g.N - (p - i)
		for hi < maxHi && (cum < target || hi == lo) {
			cum += g.Degree(hi)
			hi++
		}
		if i == p {
			for hi < g.N {
				cum += g.Degree(hi)
				hi++
			}
		}
		parts = append(parts, Partition{Lo: lo, Hi: hi, Edges: cum - lastCum})
		lastCum = cum
		lo = hi
	}
	return parts
}

// TestPartitionEdgesMatchesDegreeWalk checks PartitionEdges over a graph's
// Offsets and over an int32 copy of them against the degree walk, at part
// counts up to more parts than vertices.
func TestPartitionEdgesMatchesDegreeWalk(t *testing.T) {
	g := smallGraph(t)
	narrow := make([]int32, len(g.Offsets))
	for i, o := range g.Offsets {
		narrow[i] = int32(o)
	}
	for _, p := range []int{0, 1, 3, 7, 64, 256, g.N - 1, g.N, g.N + 5} {
		want := degreeWalkPartition(g, p)
		if got := PartitionEdges(g.Offsets, p); !slices.Equal(got, want) {
			t.Fatalf("p=%d: PartitionEdges(Offsets) differs from the degree walk", p)
		}
		if got := PartitionEdges(narrow, p); !slices.Equal(got, want) {
			t.Fatalf("p=%d: PartitionEdges(int32 sums) differs from the degree walk", p)
		}
	}
}

// TestQuadrantMatchesSwitch checks the branch-free quadrant pick against the
// four-way switch it replaces, at every band boundary, one ulp to each side
// of it, the ends of [0, 1), and a run of random draws. The tiny-B and
// tiny-C shapes make A+B == A or A+B+C == A+B in float64, so an empty band
// must pick nothing.
func TestQuadrantMatchesSwitch(t *testing.T) {
	for _, cfg := range []RMATConfig{
		LogGowalla(),
		{A: 0.25, B: 0.25, C: 0.25},
		{A: 0.5, B: 1e-17, C: 0.25},
		{A: 0.5, B: 0.2, C: 1e-17},
		{A: 1e-300, B: 0.5, C: 0.25},
	} {
		a, ab, abc := cfg.A, cfg.A+cfg.B, cfg.A+cfg.B+cfg.C
		want := func(r float64) (u, v int) {
			switch {
			case r < cfg.A:
			case r < cfg.A+cfg.B:
				v = 1
			case r < cfg.A+cfg.B+cfg.C:
				u = 1
			default:
				u, v = 1, 1
			}
			return u, v
		}
		draws := []float64{0, math.Nextafter(1, 0)}
		for _, x := range []float64{a, ab, abc} {
			draws = append(draws, math.Nextafter(x, 0), x, math.Nextafter(x, 1))
		}
		rng := rand.New(rand.NewSource(1))
		for range 10000 {
			draws = append(draws, rng.Float64())
		}
		for _, r := range draws {
			u, v := quadrant(r, a, ab, abc)
			if wu, wv := want(r); u != wu || v != wv {
				t.Fatalf("A/B/C %v/%v/%v, r = %v: quadrant bits (%d, %d), switch picks (%d, %d)",
					cfg.A, cfg.B, cfg.C, r, u, v, wu, wv)
			}
		}
	}
}

func TestLogGowallaShape(t *testing.T) {
	cfg := LogGowalla()
	if cfg.Vertices != 196591 || cfg.Edges != 950327 {
		t.Fatalf("log-gowalla shape %d/%d", cfg.Vertices, cfg.Edges)
	}
}

// BenchmarkRMATLogGowalla times the paper-sized BFS/CC input graph.
func BenchmarkRMATLogGowalla(b *testing.B) {
	// One untimed build first. The first long build in a process also pays
	// one-time runtime allocations (an OS thread started when the loop is
	// first preempted, the first garbage collection's workers), which the
	// count would otherwise charge to whichever run they land in: without
	// the warm-up a one-iteration run read 6 or 7 allocs/op against RMAT's 5.
	if _, err := RMAT(LogGowalla()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := RMAT(LogGowalla()); err != nil {
			b.Fatal(err)
		}
	}
}
