package core_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
	"pimnet/internal/sweep"
	"pimnet/internal/trace"
)

// goldenTiming is the timing half of a golden-trace corpus file.
type goldenTiming struct {
	Phases []struct {
		DurationPs int64 `json:"duration_ps"`
	} `json:"phases"`
	TotalPs     int64            `json:"total_ps"`
	BreakdownPs map[string]int64 `json:"breakdown_ps"`
}

// matchesGolden reports how res and durs differ from the pinned corpus
// cell of (pat, dpus), or "" when they agree.
func matchesGolden(t *testing.T, pat collective.Pattern, dpus int, res backend.Result, durs []sim.Time) string {
	t.Helper()
	name := strings.ToLower(strings.ReplaceAll(pat.String(), "-", ""))
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", fmt.Sprintf("%s_%d.json", name, dpus)))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenTiming
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if int64(res.Time) != g.TotalPs {
		return fmt.Sprintf("total %d ps, golden %d ps", res.Time, g.TotalPs)
	}
	for _, c := range metrics.Components() {
		if got, want := int64(res.Breakdown.Get(c)), g.BreakdownPs[c.String()]; got != want {
			return fmt.Sprintf("%v %d ps, golden %d ps", c, got, want)
		}
	}
	want := make([]sim.Time, len(g.Phases))
	for i, ph := range g.Phases {
		want[i] = sim.Time(ph.DurationPs)
	}
	if !slices.Equal(durs, want) {
		return fmt.Sprintf("phase durations %v, golden %v", durs, want)
	}
	return ""
}

// TestRecordedTimingDifferential checks, for every golden-corpus cell, that
// five results agree: the kernel's replay on a fresh network, the pinned
// golden, a cached backend's miss, the hit that follows, and a traced run of
// the cached point, which must also emit every span and leave the cache as
// it was. Sixteen sweep workers then share one cache, each on its own
// backend, so under -race the racing misses' inserts race the hits' reads.
func TestRecordedTimingDifferential(t *testing.T) {
	patterns := []collective.Pattern{collective.AllReduce, collective.AllGather,
		collective.ReduceScatter, collective.AllToAll}
	for _, dpus := range []int{64, 256, 2560} {
		sys, err := config.Default().WithDPUs(dpus)
		if err != nil {
			t.Fatal(err)
		}
		for _, pat := range patterns {
			req := collective.Request{Pattern: pat, Op: collective.Sum,
				BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus}
			fresh, err := core.NewNetwork(sys)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := core.PlanFor(fresh, req)
			if err != nil {
				t.Fatal(err)
			}
			want, durs, err := fresh.ReplayKernel(plan)
			if err != nil {
				t.Fatal(err)
			}
			if diff := matchesGolden(t, pat, dpus, want, durs); diff != "" {
				t.Fatalf("%v/%d kernel: %s", pat, dpus, diff)
			}

			cache := core.NewPlanCache()
			newBackend := func() *core.PIMnet {
				p, err := core.NewPIMnet(sys)
				if err != nil {
					t.Fatal(err)
				}
				return p.WithPlanCache(cache)
			}
			p := newBackend()
			miss, err := p.Collective(req)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := p.Collective(req)
			if err != nil {
				t.Fatal(err)
			}
			if s := cache.Stats(); miss != want || hit != want || s != (core.CacheStats{Hits: 1, Misses: 1, Entries: 1}) {
				t.Fatalf("%v/%d: miss %v, hit %v, cache %+v; kernel %v", pat, dpus, miss, hit, s, want)
			}
			traced := newBackend()
			var spans core.Spans
			traced.SetTracer(&spans, trace.LevelLink)
			tr, err := traced.Collective(req)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Time != want.Time || tr.Breakdown != want.Breakdown || spans != plan.Spans() {
				t.Fatalf("%v/%d traced: %v emitting %+v; kernel %v, plan %+v",
					pat, dpus, tr, spans, want, plan.Spans())
			}
			if s := cache.Stats(); s != (core.CacheStats{Hits: 1, Misses: 1, Entries: 1}) {
				t.Fatalf("%v/%d: traced run touched the cache: %+v", pat, dpus, s)
			}

			shared := core.NewPlanCache()
			got, _, err := sweep.Run(make([]int, 64), func(ctx *sweep.Context, _ int) ([2]backend.Result, error) {
				p, err := core.NewPIMnet(sys)
				if err != nil {
					return [2]backend.Result{}, err
				}
				p.WithPlanCache(ctx.Cache)
				var out [2]backend.Result
				for i := range out {
					if out[i], err = p.Collective(req); err != nil {
						return out, err
					}
				}
				return out, nil
			}, sweep.WithWorkers(16), sweep.WithCache(shared))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range got {
				if r[0] != want || r[1] != want {
					t.Fatalf("%v/%d point %d: %v, %v; kernel %v", pat, dpus, i, r[0], r[1], want)
				}
			}
			if s := shared.Stats(); s.Entries != 1 || s.Misses < 1 || s.Misses > 16 || s.Hits+s.Misses != 128 {
				t.Fatalf("%v/%d: shared cache %+v after 128 lookups by 16 workers", pat, dpus, s)
			}
		}
	}
}
