// Package graphgen provides the graph substrate for the BFS and CC
// workloads: a CSR graph representation, a deterministic R-MAT generator
// that reproduces the heavy-tailed degree distribution of the paper's
// log-gowalla input, and the reference traversal algorithms whose
// per-iteration frontier and label-change counts drive the workload
// phase graphs.
package graphgen

import (
	"fmt"
	"math/rand"
	"slices"
)

// Graph is an undirected graph in compressed-sparse-row form.
type Graph struct {
	N       int     // vertex count
	Offsets []int64 // len N+1; edge range of vertex v is Edges[Offsets[v]:Offsets[v+1]]
	Edges   []int32 // adjacency targets
}

// M returns the (directed) edge count; each undirected edge appears twice.
func (g *Graph) M() int64 { return int64(len(g.Edges)) }

// Neighbors returns the adjacency list of vertex v (shared storage).
func (g *Graph) Neighbors(v int) []int32 { return g.Edges[g.Offsets[v]:g.Offsets[v+1]] }

// RMATConfig parameterizes the recursive-matrix generator.
type RMATConfig struct {
	Vertices int     // rounded up to a power of two internally
	Edges    int64   // undirected edge count before dedup
	A, B, C  float64 // quadrant probabilities; D = 1-A-B-C
	Seed     int64
}

// LogGowalla returns the generator configuration matching the shape of the
// paper's log-gowalla input: ~197k vertices, ~950k undirected edges, and a
// heavy-tailed (log-normal-like) degree distribution.
func LogGowalla() RMATConfig {
	return RMATConfig{Vertices: 196591, Edges: 950327, A: 0.57, B: 0.19, C: 0.19, Seed: 20250705}
}

// RMAT generates an undirected graph with the classic recursive-quadrant
// edge distribution. Self-loops are dropped and duplicate edges merged, so
// the final edge count is slightly below the requested one, as with real
// scraped graphs.
func RMAT(cfg RMATConfig) (*Graph, error) {
	if cfg.Vertices < 2 {
		return nil, fmt.Errorf("graphgen: %d vertices", cfg.Vertices)
	}
	if cfg.Edges < 1 {
		return nil, fmt.Errorf("graphgen: %d edges", cfg.Edges)
	}
	if cfg.A <= 0 || cfg.B <= 0 || cfg.C <= 0 || cfg.A+cfg.B+cfg.C >= 1 {
		return nil, fmt.Errorf("graphgen: invalid quadrant probabilities %v/%v/%v", cfg.A, cfg.B, cfg.C)
	}
	levels := 0
	for 1<<levels < cfg.Vertices {
		levels++
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Each kept draw is one packed u<<32|v key. The CSR takes both
	// directions of every draw, then sorts and deduplicates each adjacency
	// list in place: the same edges, in the same order, as sorting and
	// compacting all directed keys, with half the scratch.
	draws := make([]uint64, 0, cfg.Edges)
	a, ab, abc := cfg.A, cfg.A+cfg.B, cfg.A+cfg.B+cfg.C
	for i := int64(0); i < cfg.Edges; i++ {
		var u, v int
		for l := 0; l < levels; l++ {
			du, dv := quadrant(rng.Float64(), a, ab, abc)
			u |= du << l
			v |= dv << l
		}
		u %= cfg.Vertices
		v %= cfg.Vertices
		if u == v {
			continue
		}
		draws = append(draws, uint64(u)<<32|uint64(v))
	}
	g := &Graph{N: cfg.Vertices, Offsets: make([]int64, cfg.Vertices+1), Edges: make([]int32, 2*len(draws))}
	for _, k := range draws {
		g.Offsets[k>>32+1]++
		g.Offsets[uint32(k)+1]++
	}
	for v := 0; v < cfg.Vertices; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	// Fill with Offsets[v] as v's cursor, which leaves it at v+1's start;
	// shifting Offsets up one slot restores the starts.
	for _, k := range draws {
		u, v := k>>32, uint32(k)
		g.Edges[g.Offsets[u]] = int32(v)
		g.Offsets[u]++
		g.Edges[g.Offsets[v]] = int32(u)
		g.Offsets[v]++
	}
	copy(g.Offsets[1:], g.Offsets[:cfg.Vertices])
	g.Offsets[0] = 0
	var w int64
	for v := 0; v < cfg.Vertices; v++ {
		adj := g.Edges[g.Offsets[v]:g.Offsets[v+1]]
		slices.Sort(adj)
		g.Offsets[v] = w
		w += int64(copy(g.Edges[w:], slices.Compact(adj)))
	}
	g.Offsets[cfg.Vertices] = w
	g.Edges = g.Edges[:w]
	return g, nil
}

// quadrant returns the (row, column) bits of the recursive quadrant that
// draw r picks at one level, given the cumulative quadrant probabilities a,
// ab = A+B and abc = A+B+C: upper-left (0, 0) below a, upper-right (0, 1)
// below ab, lower-left (1, 0) below abc, else lower-right (1, 1). The row
// bit is r >= ab; the column bit is odd exactly in the upper-right and
// lower-right bands, the parity of r >= a, r >= ab and r >= abc. The draws
// are uniform, so a branch on r would mispredict often; the comparisons
// compile to flag sets.
func quadrant(r, a, ab, abc float64) (u, v int) {
	ge := func(x float64) int {
		if r >= x {
			return 1
		}
		return 0
	}
	return ge(ab), ge(a) ^ ge(ab) ^ ge(abc)
}

// BFSResult records one breadth-first traversal.
type BFSResult struct {
	Levels        []int32 // per-vertex level, -1 if unreachable
	FrontierSizes []int64 // vertices discovered per level (level 0 = source)
	EdgesScanned  []int64 // edges examined per level
	Reached       int64
}

// BFS runs a level-synchronous breadth-first search from src — the
// algorithm the BFS workload offloads, with one frontier AllReduce per
// level on PIM.
func BFS(g *Graph, src int) (*BFSResult, error) {
	if src < 0 || src >= g.N {
		return nil, fmt.Errorf("graphgen: source %d out of range", src)
	}
	levels := make([]int32, g.N)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	frontier := []int32{int32(src)}
	res := &BFSResult{Levels: levels, FrontierSizes: []int64{1}, Reached: 1}
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []int32
		var scanned int64
		for _, u := range frontier {
			for _, v := range g.Neighbors(int(u)) {
				scanned++
				if levels[v] < 0 {
					levels[v] = depth
					next = append(next, v)
				}
			}
		}
		res.EdgesScanned = append(res.EdgesScanned, scanned)
		if len(next) > 0 {
			res.FrontierSizes = append(res.FrontierSizes, int64(len(next)))
		}
		res.Reached += int64(len(next))
		frontier = next
	}
	return res, nil
}

// CCResult records a label-propagation connected-components run.
type CCResult struct {
	Labels     []int32
	Iterations int
	Changed    []int64 // label updates per iteration
	Components int
}

// ConnectedComponents runs synchronous min-label propagation — the CC
// workload's kernel, with one AllReduce(min) per iteration on PIM.
func ConnectedComponents(g *Graph) *CCResult {
	labels := make([]int32, g.N)
	for i := range labels {
		labels[i] = int32(i)
	}
	res := &CCResult{Labels: labels}
	next := make([]int32, g.N)
	for {
		var changed int64
		copy(next, labels)
		for v := 0; v < g.N; v++ {
			for _, u := range g.Neighbors(v) {
				if labels[u] < next[v] {
					next[v] = labels[u]
				}
			}
		}
		for v := 0; v < g.N; v++ {
			if next[v] != labels[v] {
				changed++
			}
		}
		copy(labels, next)
		res.Iterations++
		res.Changed = append(res.Changed, changed)
		if changed == 0 {
			break
		}
	}
	seen := make(map[int32]bool)
	for _, l := range labels {
		seen[l] = true
	}
	res.Components = len(seen)
	return res
}

// Partition is one part of an edge-balanced contiguous vertex partition
// (the distribution used when offloading to DPUs): its vertex range and
// edge count.
type Partition struct {
	Lo, Hi int // vertex range [Lo, Hi)
	Edges  int64
}

// PartitionEdges returns a p-way edge-balanced contiguous partition of the
// vertices whose degree prefix sums are offsets: a Graph's Offsets, or a
// narrower copy of them kept without the edges. offsets[0] is 0, and
// offsets[len(offsets)-1] is the edge count.
func PartitionEdges[O int32 | int64](offsets []O, p int) []Partition {
	if p < 1 {
		p = 1
	}
	n := len(offsets) - 1
	m := int64(offsets[n])
	parts := make([]Partition, 0, p)
	lo := 0
	for i := 1; i <= p; i++ {
		// Boundary i closes at the first vertex past lo whose cumulative
		// edge count reaches i/p of the total (degree sums never fall, so a
		// binary search finds it), while leaving at least one vertex per
		// remaining part. The last part takes every vertex left.
		target := O(m * int64(i) / int64(p))
		hi := lo
		if maxHi := n - (p - i); lo < maxHi {
			j, _ := slices.BinarySearch(offsets[lo+1:maxHi], target)
			hi = lo + 1 + j
		}
		if i == p {
			hi = n
		}
		parts = append(parts, Partition{Lo: lo, Hi: hi, Edges: int64(offsets[hi] - offsets[lo])})
		lo = hi
	}
	return parts
}

// MaxPartitionEdges returns the heaviest partition's edge count — the
// per-superstep compute bound of the busiest DPU.
func MaxPartitionEdges(parts []Partition) int64 {
	var m int64
	for _, p := range parts {
		if p.Edges > m {
			m = p.Edges
		}
	}
	return m
}
