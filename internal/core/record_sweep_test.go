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
// four results agree: the kernel's replay on a fresh network, the pinned
// golden, the Execute miss that writes the plan's record, and the record
// hits that follow. Sixteen sweep workers then share one cached plan, each
// on its own backend, so under -race the record's write-once publication
// races the workers' reads.
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
			if _, ok := plan.RecordedTiming(); ok {
				t.Fatalf("%v/%d: the kernel wrote a timing record", pat, dpus)
			}
			miss, err := fresh.Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := fresh.Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := plan.RecordedTiming()
			if !ok || miss != want || hit != want || rec != want {
				t.Fatalf("%v/%d: miss %v, hit %v, record %v (ok %v); kernel %v",
					pat, dpus, miss, hit, rec, ok, want)
			}

			cache := core.NewPlanCache()
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
			}, sweep.WithWorkers(16), sweep.WithCache(cache))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range got {
				if r[0] != want || r[1] != want {
					t.Fatalf("%v/%d point %d: %v, %v; kernel %v", pat, dpus, i, r[0], r[1], want)
				}
			}
			shared, err := core.PlanVia(cache, fresh, req)
			if err != nil {
				t.Fatal(err)
			}
			if rec, ok := shared.RecordedTiming(); !ok || rec != want {
				t.Fatalf("%v/%d: shared plan's record %v (ok %v), kernel %v", pat, dpus, rec, ok, want)
			}
		}
	}
}
