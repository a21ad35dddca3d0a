package sweep_test

import (
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/core"
	"pimnet/internal/sweep"
)

// benchPoints is a sweep that revisits the same compilation points — the
// shape of every repeated-workload study, where the plan cache pays off.
func benchPoints() []collective.Pattern {
	var pts []collective.Pattern
	for i := 0; i < 4; i++ {
		pts = append(pts, collective.AllReduce, collective.AllGather,
			collective.ReduceScatter, collective.AllToAll)
	}
	return pts
}

func runBenchSweep(b *testing.B, cache *core.PlanCache) {
	b.Helper()
	_, _, err := sweep.Run(benchPoints(), func(ctx *sweep.Context, pat collective.Pattern) (int64, error) {
		res, err := collectivePoint(ctx.Cache, 256, pat)
		if err != nil {
			return 0, err
		}
		return int64(len(res)), nil
	}, sweep.WithWorkers(4), sweep.WithCache(cache))
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepColdCache compiles every point from scratch: a fresh cache
// per iteration, so within one iteration only repeats of a point hit.
func BenchmarkSweepColdCache(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runBenchSweep(b, core.NewPlanCache())
	}
}

// BenchmarkSweepWarmCache reuses one pre-populated cache: every point reuses
// a cached plan instead of compiling. The gap against ColdCache is the
// compile time the cache saves.
func BenchmarkSweepWarmCache(b *testing.B) {
	b.ReportAllocs()
	cache := core.NewPlanCache()
	runBenchSweep(b, cache) // prewarm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchSweep(b, cache)
	}
}
