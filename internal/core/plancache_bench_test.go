package core

import (
	"testing"

	"pimnet/internal/collective"
)

// The cold/warm pair isolates what the cache saves: ColdCompile runs the
// full scheduler (chunk geometry, route construction, contention analysis)
// for the heaviest Table V plan; WarmLookup replays the same point through
// a populated cache, which returns the shared plan itself.

func BenchmarkPlanColdCompile(b *testing.B) {
	b.ReportAllocs()
	n := testNet(b, 2560)
	req := testReq(collective.AllToAll, 2560, 32<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanFor(n, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanWarmLookup(b *testing.B) {
	b.ReportAllocs()
	n := testNet(b, 2560)
	req := testReq(collective.AllToAll, 2560, 32<<10)
	c := NewPlanCache()
	if _, err := PlanVia(c, n, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanVia(c, n, req); err != nil {
			b.Fatal(err)
		}
	}
}
