package core

import (
	"testing"

	"pimnet/internal/collective"
)

// The Execute benchmarks measure the replay kernel alone: the plan is
// compiled once and replayed transfer by transfer through executePhases,
// which is what a backend runs on a plan-cache miss or a traced request. A
// repeat healthy run is answered from the cache; BenchmarkRecordedHit2560
// times that path. The Execute rows are part of the regression-gated suite
// (make benchcmp): BENCH_baseline.json pins their latency and allocs/op.

func benchExecute(b *testing.B, pat collective.Pattern, dpus int) {
	b.Helper()
	n := testNet(b, dpus)
	plan, err := PlanFor(n, testReq(pat, dpus, 32<<10))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := n.executePhases(plan, execOptions{}); err != nil { // warm the scratch buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := n.executePhases(plan, execOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteAllReduce256(b *testing.B) {
	benchExecute(b, collective.AllReduce, 256)
}

func BenchmarkExecuteAllToAll256(b *testing.B) {
	benchExecute(b, collective.AllToAll, 256)
}

func BenchmarkExecuteAllReduce2560(b *testing.B) {
	benchExecute(b, collective.AllReduce, 2560)
}

func BenchmarkExecuteAllToAll2560(b *testing.B) {
	benchExecute(b, collective.AllToAll, 2560)
}

// BenchmarkRecordedHit2560 times answering a repeat healthy 2560-DPU
// All-to-All from a warm plan cache the way a daemon request does: a fresh
// backend, then one Collective. With -benchmem it shows the hit allocating
// only the backend, no network. It is not gated.
func BenchmarkRecordedHit2560(b *testing.B) {
	sys := testSys(b, 2560)
	req := testReq(collective.AllToAll, 2560, 32<<10)
	c := NewPlanCache()
	mustCollective(b, cachedPIMnet(b, 2560, c), req) // fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPIMnet(sys)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.WithPlanCache(c).Collective(req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecuteSteadyStateZeroAllocs is the executor's allocation contract:
// after one warm-up replay has sized the network's execScratch, the replay
// kernel allocates nothing — the property the benchcmp gate keeps from
// regressing. TestPlanViaWarmAllocs holds the same contract for a warm
// plan-cache hit.
func TestExecuteSteadyStateZeroAllocs(t *testing.T) {
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllToAll} {
		n := testNet(t, 256)
		plan, err := PlanFor(n, testReq(pat, 256, 32<<10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Execute(plan); err != nil { // sizes the scratch
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := n.Execute(plan); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("%v: steady-state replay allocates %.1f times, want 0", pat, avg)
		}
	}
}
