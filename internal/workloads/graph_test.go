package workloads

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"pimnet/internal/collective"
	"pimnet/internal/dpu"
	"pimnet/internal/graphgen"
	"pimnet/internal/machine"
)

// graphWorkloads builds the BFS and CC workloads straight from a graph, the
// way the constructors did before they read graphFacts: the differential
// oracle for the facts and the memo.
func graphWorkloads(t *testing.T, opt Options, g *graphgen.Graph) (bfsWl, ccWl machine.Workload) {
	t.Helper()
	res, err := graphgen.BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	busiest := graphgen.MaxPartitionEdges(graphgen.PartitionEdges(g.Offsets, opt.Nodes))
	maxShare := float64(busiest) / float64(g.M())
	bfsWl = machine.Workload{Name: "BFS"}
	for level, scanned := range res.EdgesScanned {
		b := int64(float64(scanned)*maxShare) + 1
		bfsWl.Phases = append(bfsWl.Phases, machine.Phase{
			Name:       fmt.Sprintf("level-%d", level+1),
			Kernel:     dpu.Kernel{Other: 4 * b, Loads: 2 * b, Stores: b, Adds: int64(g.N/opt.Nodes) + 1},
			MRAMRandom: 2 * b,
			Collective: &collective.Request{Pattern: collective.AllReduce, Op: collective.Or,
				BytesPerNode: alignUp(int64((g.N+7)/8), 4), ElemSize: 4, Nodes: opt.Nodes},
		})
	}
	ccWl = machine.Workload{Name: "CC", Phases: []machine.Phase{{
		Name:       "propagate",
		Kernel:     dpu.Kernel{Other: 4 * busiest, Loads: 2 * busiest, Stores: busiest / 2},
		MRAMRandom: 3 * busiest,
		Collective: &collective.Request{Pattern: collective.AllReduce, Op: collective.Min,
			BytesPerNode: int64(g.N) * 4, ElemSize: 4, Nodes: opt.Nodes},
		Repeat: graphgen.ConnectedComponents(g).Iterations,
	}}}
	return bfsWl, ccWl
}

// TestGraphWorkloadsMatchFreshGraph checks Named BFS and CC, paper-sized
// (the memo) and scaled (a per-call traversal), against the workloads built
// from a freshly generated graph, at 64, 256 and 2560 nodes and two seeds.
// The paper-sized ones must not depend on the seed.
func TestGraphWorkloadsMatchFreshGraph(t *testing.T) {
	paper, err := graphgen.RMAT(graphgen.LogGowalla())
	if err != nil {
		t.Fatal(err)
	}
	for _, scaled := range []bool{false, true} {
		for _, seed := range []int64{1, 2} {
			g := paper
			if scaled {
				cfg := newInputs(SuiteConfig{Nodes: 64, Seed: seed, Scaled: true}).rmat
				if g, err = graphgen.RMAT(cfg); err != nil {
					t.Fatal(err)
				}
			}
			for _, nodes := range []int{64, 256, 2560} {
				cfg := SuiteConfig{Nodes: nodes, Seed: seed, Scaled: scaled}
				wantBFS, wantCC := graphWorkloads(t, Options{Nodes: nodes, Seed: seed}, g)
				for name, want := range map[string]machine.Workload{"BFS": wantBFS, "CC": wantCC} {
					got, err := Named(name, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%+v: Named(%s) differs from the fresh graph's workload", cfg, name)
					}
				}
			}
		}
	}
}

// TestPaperGraphBuiltOnce runs paper-sized Named BFS and CC lookups beside a
// paper-sized Suite on 8 goroutines (make check runs it under -race): every
// result must agree, and the process must have traversed the paper graph
// exactly once, however many tests before this one read it.
func TestPaperGraphBuiltOnce(t *testing.T) {
	cfg := SuiteConfig{Nodes: 256, Seed: 1}
	got := make([][]machine.Workload, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				var suite []machine.Workload
				if suite, errs[i] = Suite(cfg); errs[i] == nil {
					got[i] = suite[:2]
				}
				return
			}
			name := [2]string{"BFS", "CC"}[i%2]
			var wl machine.Workload
			wl, errs[i] = Named(name, cfg)
			got[i] = []machine.Workload{wl}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(got); i++ {
		if want := got[0][i%2]; !reflect.DeepEqual(got[i][0], want) {
			t.Errorf("goroutine %d: Named(%s) differs from Suite's", i, want.Name)
		}
	}
	if n := paperGraphBuilds.Load(); n != 1 {
		t.Fatalf("paper graph traversed %d times, want 1", n)
	}
}

// TestPaperGraphFootprint bounds what the memo keeps for the life of a
// process: the facts, with no edges, levels or labels, in at most 1 MiB.
func TestPaperGraphFootprint(t *testing.T) {
	g, err := paperGraph()
	if err != nil {
		t.Fatal(err)
	}
	retained := int(unsafe.Sizeof(*g)) + cap(g.degreeSums)*4 + cap(g.scanned)*8
	if retained > 1<<20 {
		t.Fatalf("memo retains %d bytes, want at most %d", retained, 1<<20)
	}
	if len(g.degreeSums) != g.n+1 || int64(g.degreeSums[g.n]) != g.m {
		t.Fatalf("degree sums: %d entries ending at %d, want %d ending at %d",
			len(g.degreeSums), g.degreeSums[g.n], g.n+1, g.m)
	}
}
