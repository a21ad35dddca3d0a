package core

import (
	"testing"

	"pimnet/internal/collective"
)

// The cold/warm pair isolates what the cache saves: ColdCompile runs the
// full scheduler (chunk geometry, route construction, contention analysis)
// for the heaviest Table V plan; WarmLookup answers the same point through
// a populated cache on a backend that builds no network.

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
	req := testReq(collective.AllToAll, 2560, 32<<10)
	p := cachedPIMnet(b, 2560, NewPlanCache())
	mustCollective(b, p, req) // fills the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Collective(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanKeyDigest times the serving tier's per-request plan_key: a
// digest of a 2560-DPU key whose system's encoding is already memoized.
func BenchmarkPlanKeyDigest(b *testing.B) {
	k := KeyFor(testSys(b, 2560), testReq(collective.AllToAll, 2560, 32<<10))
	k.Digest()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		k.Digest()
	}
}
