package cxlpim

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/metrics"
	"pimnet/internal/sweep"
	"pimnet/internal/trace"
)

// TestRecordedTimingDifferential checks, for every golden-corpus cell, that
// five CXL-PIM results agree: a backend without a plan cache, whose every
// intra-device plan is freshly compiled and replayed transfer by transfer;
// the pinned golden; the first run on a cached backend, whose intra-device
// misses store their results; the hits of the second run; and a traced run
// after them, which bypasses the cache and emits the same events as a
// traced uncached run. Sixteen sweep workers then share one plan cache, each
// on its own backend, so under -race the racing misses' inserts race the
// hits' reads.
func TestRecordedTimingDifferential(t *testing.T) {
	for _, pat := range goldenMatrix.patterns {
		for _, dpus := range goldenMatrix.dpus {
			sys, err := config.Default().WithDPUs(dpus)
			if err != nil {
				t.Fatal(err)
			}
			req := collective.Request{Pattern: pat, Op: collective.Sum,
				BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus}
			uncached := mustNew(t, sys)
			var wantEvents events
			uncached.SetTracer(&wantEvents, trace.LevelLink)
			want, err := uncached.Collective(req)
			if err != nil {
				t.Fatal(err)
			}
			if diff := matchesGolden(t, pat, dpus, want); diff != "" {
				t.Fatalf("%v/%d replay: %s", pat, dpus, diff)
			}
			cache := core.NewPlanCache()
			c := mustNew(t, sys).WithPlanCache(cache)
			miss, err := c.Collective(req)
			if err != nil {
				t.Fatal(err)
			}
			filled := cache.Stats()
			hit, err := c.Collective(req)
			if err != nil {
				t.Fatal(err)
			}
			if miss != want || hit != want {
				t.Fatalf("%v/%d: first run %v, second %v; replay %v", pat, dpus, miss, hit, want)
			}
			if s := cache.Stats(); filled.Hits != 0 || s.Misses != filled.Misses || s.Hits != filled.Misses {
				t.Fatalf("%v/%d: cache %+v after the first run, %+v after the second", pat, dpus, filled, s)
			}
			var gotEvents events
			c.SetTracer(&gotEvents, trace.LevelLink)
			tr, err := c.Collective(req)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Time != want.Time || tr.Breakdown != want.Breakdown || !slices.Equal(gotEvents, wantEvents) {
				t.Fatalf("%v/%d traced after cached: %v with %d events; replay %v with %d",
					pat, dpus, tr, len(gotEvents), want, len(wantEvents))
			}
			if s := cache.Stats(); s.Misses != filled.Misses || s.Hits != filled.Misses {
				t.Fatalf("%v/%d: traced run touched the cache: %+v", pat, dpus, s)
			}
			got, _, err := sweep.Run(make([]int, 64), func(ctx *sweep.Context, _ int) (backend.Result, error) {
				c, err := New(sys)
				if err != nil {
					return backend.Result{}, err
				}
				return c.WithPlanCache(ctx.Cache).Collective(req)
			}, sweep.WithWorkers(16), sweep.WithCache(core.NewPlanCache()))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range got {
				if r != want {
					t.Fatalf("%v/%d point %d: %v; replay %v", pat, dpus, i, r, want)
				}
			}
		}
	}
}

// events is a tracer that keeps every event it is sent.
type events []trace.Event

func (e *events) Emit(ev trace.Event) { *e = append(*e, ev) }

// matchesGolden reports how res differs from the pinned corpus cell of
// (pat, dpus), or "" when they agree.
func matchesGolden(t *testing.T, pat collective.Pattern, dpus int, res backend.Result) string {
	t.Helper()
	raw, err := os.ReadFile(goldenFile(pat, dpus))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenResult
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if int64(res.Time) != g.TimePs {
		return fmt.Sprintf("total %d ps, golden %d ps", res.Time, g.TimePs)
	}
	for _, c := range metrics.Components() {
		if got, want := int64(res.Breakdown.Get(c)), g.BreakdownPs[c.String()]; got != want {
			return fmt.Sprintf("%v %d ps, golden %d ps", c, got, want)
		}
	}
	return ""
}
