package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/faults"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// cachedResult runs req once on a fresh dpus-DPU backend attached to a new
// cache, which stores the result. It returns the cache and the result.
func cachedResult(t *testing.T, dpus int, req collective.Request) (*PlanCache, backend.Result) {
	t.Helper()
	c := NewPlanCache()
	res := mustCollective(t, cachedPIMnet(t, dpus, c), req)
	if s := c.Stats(); s != (CacheStats{Misses: 1, Entries: 1}) {
		t.Fatalf("first run: cache %+v, want one miss and one entry", s)
	}
	return c, res
}

// kernel replays p on n through executePhases.
func kernel(t *testing.T, n *Network, p *Plan) backend.Result {
	t.Helper()
	res, _, _, err := n.executePhases(p, execOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecordedTimingInvalidation: once the cache holds a point's result, a
// backend built from a system that differs only in the step overhead or in
// one tier bandwidth misses and gets its own replay, and a backend with a
// degraded link bypasses the cache. The stored result stays as written.
func TestRecordedTimingInvalidation(t *testing.T) {
	cases := []struct {
		name string
		// sys changes the cached backend's system into the other backend's;
		// nil arms a degraded link on a backend of the same system instead.
		sys func(*config.System)
	}{
		{"step overhead", func(s *config.System) { s.Net.StepOverhead = 1000 }},
		{"bank bandwidth", func(s *config.System) { s.Net.BankChannelBW /= 2 }},
		{"global bandwidth", func(s *config.System) { s.Net.ChipChannelBW /= 2 }},
		{"degraded link", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := testReq(collective.AllReduce, 256, 32<<10)
			cache, written := cachedResult(t, 256, req)
			sys := testSys(t, 256)
			misses := uint64(1)
			if c.sys != nil {
				c.sys(&sys)
				misses = 2
			}
			p, err := NewPIMnet(sys)
			if err != nil {
				t.Fatal(err)
			}
			p.WithPlanCache(cache)
			if c.sys == nil {
				f := faults.Fault{Class: faults.LinkDegrade, Site: faults.SiteRing, Factor: 0.25}
				if err := p.EnableFaults(&faults.Model{Faults: []faults.Fault{f}}, nil); err != nil {
					t.Fatal(err)
				}
			}
			got := mustCollective(t, p, req)
			if got == written {
				t.Fatalf("Collective returned the cached %v under changed conditions", written)
			}
			if c.sys != nil {
				n, err := NewNetwork(sys)
				if err != nil {
					t.Fatal(err)
				}
				if want := kernel(t, n, mustPlan(t, n, req)); got != want {
					t.Fatalf("Collective = %v, kernel = %v", got, want)
				}
			}
			if s := cache.Stats(); s.Hits != 0 || s.Misses != misses {
				t.Fatalf("cache %+v, want no hit and %d misses", s, misses)
			}
			if res, ok := cache.Lookup(KeyFor(testSys(t, 256), req)); !ok || res != written {
				t.Fatalf("cached result changed to %v (ok %v), want the first %v", res, ok, written)
			}
		})
	}
}

// TestRecordedTimingTracedRun: a traced run of a cached point bypasses the
// cache and replays every transfer, so it returns the cached result, emits
// exactly the Chrome trace that TestChromeTraceGolden pins, and neither
// counts nor stores anything. Detaching the tracer serves the cache again.
func TestRecordedTimingTracedRun(t *testing.T) {
	req := testReq(collective.AllReduce, 64, 4096)
	cache, cached := cachedResult(t, 64, req)
	p := cachedPIMnet(t, 64, cache)
	chrome := trace.NewChrome()
	p.SetTracer(chrome, trace.LevelLink)
	if got := mustCollective(t, p, req); got != cached {
		t.Fatalf("traced Collective = %v, cached %v", got, cached)
	}
	if s := cache.Stats(); s != (CacheStats{Misses: 1, Entries: 1}) {
		t.Fatalf("traced run touched the cache: %+v", s)
	}
	var buf bytes.Buffer
	if _, err := chrome.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chrome_allreduce64.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("traced run of a cached point drifted from testdata/chrome_allreduce64.json")
	}
	p.SetTracer(nil, trace.LevelLink)
	if got := mustCollective(t, p, req); got != cached {
		t.Fatalf("untraced Collective = %v; want the cached %v", got, cached)
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Fatalf("untraced repeat: cache %+v, want one hit", s)
	}
}

// TestRerouteClearsVerified: rewriting a plan's transfers around a failed
// ring segment clears its contention memo, so the next execution re-checks
// the rewritten plan, and that execution equals the kernel's replay.
func TestRerouteClearsVerified(t *testing.T) {
	req := testReq(collective.AllReduce, 256, 32<<10)
	plan := mustPlan(t, testNet(t, 256), req)
	faulted := testNet(t, 256)
	if err := faulted.ApplyFault(faults.Fault{Class: faults.LinkFail, Site: faults.SiteRing}); err != nil {
		t.Fatal(err)
	}
	if err := faulted.rerouteRings(plan); err != nil {
		t.Fatal(err)
	}
	if plan.verified {
		t.Fatal("rerouteRings kept the contention memo of the plan it rewrote")
	}
	healthy := testNet(t, 256)
	got, err := healthy.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.verified {
		t.Fatal("Execute did not re-check the rewritten plan")
	}
	if want := kernel(t, healthy, plan); got != want {
		t.Fatalf("Execute of the rerouted plan = %v, kernel = %v", got, want)
	}
}

// TestRecordedTimingForeignTopology: a plan refuses a network of another
// topology, and a cached 256-DPU point never answers a 64-DPU backend.
func TestRecordedTimingForeignTopology(t *testing.T) {
	req := testReq(collective.AllReduce, 256, 32<<10)
	if _, err := testNet(t, 64).Execute(mustPlan(t, testNet(t, 256), req)); err == nil {
		t.Fatal("256-DPU plan executed on a 64-DPU network")
	}
	cache, _ := cachedResult(t, 256, req)
	if _, err := cachedPIMnet(t, 64, cache).Collective(req); err == nil {
		t.Fatal("a 64-DPU backend answered a cached 256-DPU point")
	}
	if s := cache.Stats(); s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("cache %+v, want no hit and one entry", s)
	}
}

// FuzzRecordedTiming: on a small system with an arbitrary step overhead and
// an optional bandwidth rescale, a cache miss, the hit that follows and a
// traced run of the same point all equal the kernel's replay on a fresh
// network built from the same system; the traced run emits a span for every
// phase and transfer and leaves the cache as it was; and the breakdown sums
// to the latency.
func FuzzRecordedTiming(f *testing.F) {
	f.Add(uint8(collective.AllReduce), uint8(0), uint8(1), uint8(3), uint32(4096), uint32(0), uint8(0), uint8(3))
	f.Add(uint8(collective.AllToAll), uint8(1), uint8(3), uint8(7), uint32(32<<10), uint32(250), uint8(1), uint8(7))
	f.Add(uint8(collective.ReduceScatter), uint8(2), uint8(1), uint8(1), uint32(200<<10), uint32(10000), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, pat, ranks, chips, banks uint8, bytesPerNode, overhead uint32, scaleKind, scale uint8) {
		sys := config.Default()
		sys.Ranks, sys.ChipsPerRank, sys.BanksPerChip = 1+int(ranks%4), 1+int(chips%8), 1+int(banks%8)
		sys.Net.StepOverhead = sim.Time(overhead % 2_000_000)
		factor := float64(1+scale%16) / 4 // 0.25x to 4x
		switch scaleKind % 3 {
		case 1:
			sys.Net.BankChannelBW *= factor
		case 2:
			sys.Net.ChipChannelBW *= factor
			sys.Net.RankBusBW *= factor
		}
		fresh, err := NewNetwork(sys)
		if err != nil {
			t.Fatal(err)
		}
		req := collective.Request{Pattern: collective.Pattern(pat % 7), Op: collective.Sum,
			BytesPerNode: 4 * (1 + int64(bytesPerNode%(256<<10))), ElemSize: 4, Nodes: fresh.Topo.Nodes()}
		plan, err := PlanFor(fresh, req)
		if err != nil {
			t.Skip(err)
		}
		want := kernel(t, fresh, plan)

		cache := NewPlanCache()
		p, err := NewPIMnet(sys)
		if err != nil {
			t.Fatal(err)
		}
		p.WithPlanCache(cache)
		miss := mustCollective(t, p, req)
		hit := mustCollective(t, p, req)
		if s := cache.Stats(); s != (CacheStats{Hits: 1, Misses: 1, Entries: 1}) {
			t.Fatalf("cache %+v after a miss and a hit", s)
		}
		traced, err := NewPIMnet(sys)
		if err != nil {
			t.Fatal(err)
		}
		var got Spans
		traced.WithPlanCache(cache).SetTracer(&got, trace.LevelLink)
		tr := mustCollective(t, traced, req)
		if s := cache.Stats(); s != (CacheStats{Hits: 1, Misses: 1, Entries: 1}) {
			t.Fatalf("traced run touched the cache: %+v", s)
		}
		if miss != want || hit != want || tr != want {
			t.Fatalf("%v on %v: miss %v, hit %v, traced %v, kernel on a fresh network %v",
				req.Pattern, fresh.Topo, miss, hit, tr, want)
		}
		if want := plan.Spans(); got != want {
			t.Fatalf("traced run emitted %+v, the plan has %+v", got, want)
		}
		if total := miss.Breakdown.Total(); total != miss.Time {
			t.Fatalf("breakdown sums to %v, latency %v", total, miss.Time)
		}
	})
}
