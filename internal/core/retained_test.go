package core_test

import (
	"runtime"
	"testing"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/cxlpim"
)

// TestPlanCacheRetainsNoPlans: 24 distinct 2560-DPU collectives (PIMnet and
// CXL-PIM, four patterns, three payloads) through one cache leave it holding
// their results, not their compiled plans (0.6-1.9 MB each at this size), so
// the live heap grows by well under a megabyte.
func TestPlanCacheRetainsNoPlans(t *testing.T) {
	sys, err := config.Default().WithDPUs(2560)
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewPlanCache()
	builders := []func() (backend.Backend, error){
		func() (backend.Backend, error) {
			p, err := core.NewPIMnet(sys)
			if err != nil {
				return nil, err
			}
			return p.WithPlanCache(cache), nil
		},
		func() (backend.Backend, error) {
			c, err := cxlpim.New(sys)
			if err != nil {
				return nil, err
			}
			return c.WithPlanCache(cache), nil
		},
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, build := range builders {
		for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllGather,
			collective.ReduceScatter, collective.AllToAll} {
			for _, bytes := range []int64{4 << 10, 32 << 10, 256 << 10} {
				be, err := build()
				if err != nil {
					t.Fatal(err)
				}
				req := collective.Request{Pattern: pat, Op: collective.Sum,
					BytesPerNode: bytes, ElemSize: 4, Nodes: 2560}
				if _, err := be.Collective(req); err != nil {
					t.Fatalf("%s %v: %v", be.Name(), req, err)
				}
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if s := cache.Stats(); s.Entries < 24 {
		t.Fatalf("cache %+v, want at least 24 entries", s)
	}
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("live heap grew by %d bytes over 24 cached collectives, want under 1 MB", grew)
	}
	runtime.KeepAlive(cache)
}
