package workloads

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pimnet/internal/graphgen"
)

// graphFacts is all that the BFS and CC workloads read of a graph: its
// vertex and edge counts, its degree prefix sums (the edge-balanced
// partition at any node count), the edges a BFS from vertex 0 scans per
// level, and the rounds CC's label propagation takes. It keeps no edges,
// levels or labels, and it is read-only once built.
type graphFacts struct {
	n          int
	m          int64   // directed edges; each undirected edge counts twice
	degreeSums []int32 // len n+1: the graph's Offsets, narrowed
	scanned    []int64 // per BFS level
	iterations int
}

// traverse builds the graph cfg describes, runs BFS from vertex 0 and CC on
// it, and returns their facts; the graph itself is garbage on return.
func traverse(cfg graphgen.RMATConfig) (*graphFacts, error) {
	g, err := graphgen.RMAT(cfg)
	if err != nil {
		return nil, err
	}
	if g.M() > math.MaxInt32 {
		return nil, fmt.Errorf("workloads: %d edges overflow int32 degree sums", g.M())
	}
	res, err := graphgen.BFS(g, 0)
	if err != nil {
		return nil, err
	}
	sums := make([]int32, len(g.Offsets))
	for v, o := range g.Offsets {
		sums[v] = int32(o)
	}
	return &graphFacts{
		n:          g.N,
		m:          g.M(),
		degreeSums: sums,
		scanned:    res.EdgesScanned,
		iterations: graphgen.ConnectedComponents(g).Iterations,
	}, nil
}

// paperGraph returns the facts of the paper's graph (graphgen.LogGowalla),
// traversed once per process on first use. That graph is a constant: its
// seed is fixed and no request seed reaches it, so every paper-sized BFS
// and CC reads the same facts. The memo keeps ~0.8 MB of degree sums, not
// the ~9 MB graph.
var paperGraph = sync.OnceValues(func() (*graphFacts, error) {
	paperGraphBuilds.Add(1)
	return traverse(graphgen.LogGowalla())
})

// paperGraphBuilds counts paperGraph's traversals; a test pins it at one.
var paperGraphBuilds atomic.Int32
