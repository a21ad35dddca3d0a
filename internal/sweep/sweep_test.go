package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/faults"
	"pimnet/internal/host"
	"pimnet/internal/metrics"
	"pimnet/internal/sweep"
)

// poolSizes are the worker counts every determinism property is checked
// against; 1 is the serial reference.
var poolSizes = []int{1, 4, 16}

func TestRunPreservesOrder(t *testing.T) {
	points := make([]int, 64)
	for i := range points {
		points[i] = i
	}
	for _, w := range poolSizes {
		got, stats, err := sweep.Run(points, func(ctx *sweep.Context, p int) (string, error) {
			if ctx.Index != p {
				t.Errorf("point %d saw index %d", p, ctx.Index)
			}
			// Perturb completion order so assembly order is actually tested.
			time.Sleep(time.Duration((p*37)%5) * time.Millisecond)
			return fmt.Sprintf("r%d", p), nil
		}, sweep.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if r != fmt.Sprintf("r%d", i) {
				t.Fatalf("workers=%d: slot %d holds %q", w, i, r)
			}
		}
		if stats.Points != len(points) || stats.PointWall.Count != len(points) {
			t.Fatalf("workers=%d: bad stats %+v", w, stats)
		}
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	points := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, w := range poolSizes {
		// Points 2 and 5 fail; 5 finishes first by construction.
		_, _, err := sweep.Run(points, func(_ *sweep.Context, p int) (int, error) {
			switch p {
			case 2:
				time.Sleep(10 * time.Millisecond)
				return 0, fmt.Errorf("late: %w", boom)
			case 5:
				return 0, fmt.Errorf("early: %w", boom)
			}
			return p, nil
		}, sweep.WithWorkers(w))
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: want wrapped boom, got %v", w, err)
		}
		if !strings.Contains(err.Error(), "point 2") {
			t.Fatalf("workers=%d: want lowest-indexed point 2, got %v", w, err)
		}
	}
}

func TestRunRecoversPanics(t *testing.T) {
	points := []int{0, 1, 2}
	results, _, err := sweep.Run(points, func(_ *sweep.Context, p int) (int, error) {
		if p == 1 {
			panic("kaboom")
		}
		return p * 10, nil
	}, sweep.WithWorkers(2))
	if err == nil || !strings.Contains(err.Error(), "panic: kaboom") {
		t.Fatalf("want recovered panic, got %v", err)
	}
	// The other points still ran to completion.
	if results[0] != 0 || results[2] != 20 {
		t.Fatalf("surviving results clobbered: %v", results)
	}
}

func TestRunEmptyAndStats(t *testing.T) {
	got, stats, err := sweep.Run(nil, func(_ *sweep.Context, p int) (int, error) { return p, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: %v %v", got, err)
	}
	var agg metrics.SweepStats
	cache := core.NewPlanCache()
	_, _, err = sweep.Run([]int{64, 64}, func(ctx *sweep.Context, dpus int) (string, error) {
		res, err := collectivePoint(ctx.Cache, dpus, collective.AllReduce)
		return res, err
	}, sweep.WithWorkers(1), sweep.WithCache(cache), sweep.WithStats(&agg))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Points != 2 {
		t.Fatalf("agg not merged: %+v", agg)
	}
	// Identical points: the second must reuse the first's cached plan.
	if agg.CacheHits != 1 || agg.CacheMisses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %d/%d", agg.CacheHits, agg.CacheMisses)
	}
	if stats.Points != 0 {
		t.Fatalf("empty-run stats: %+v", stats)
	}
}

// collectivePoint runs one collective on a fresh PIMnet backend and renders
// the full deterministic output (latency + breakdown) as a string.
func collectivePoint(cache *core.PlanCache, dpus int, pat collective.Pattern) (string, error) {
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		return "", err
	}
	p, err := core.NewPIMnet(sys)
	if err != nil {
		return "", err
	}
	p.WithPlanCache(cache)
	res, err := p.Collective(collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d/%v: %v %v", dpus, pat, res.Time, res.Breakdown.String()), nil
}

// faultyPoint runs one collective under an armed fault model (seeded, so
// placement is reproducible) and renders the result plus the recovery
// counters.
func faultyPoint(dpus int, spec faults.Spec) (string, error) {
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		return "", err
	}
	m, err := faults.New(spec, sys.Ranks, sys.ChipsPerRank, sys.BanksPerChip)
	if err != nil {
		return "", err
	}
	p, err := core.NewPIMnet(sys)
	if err != nil {
		return "", err
	}
	fb, err := host.NewBaseline(sys)
	if err != nil {
		return "", err
	}
	if err := p.EnableFaults(m, fb); err != nil {
		return "", err
	}
	res, err := p.Collective(collective.Request{Pattern: collective.AllReduce,
		Op: collective.Sum, BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d: %v %v %v", dpus, res.Time, res.Breakdown.String(), p.FaultCounters()), nil
}

// TestDeterministicAcrossPoolSizes is the core determinism property: the
// same sweep, serially and on pools of 4 and 16 workers, with a shared plan
// cache, produces bit-identical rendered results.
func TestDeterministicAcrossPoolSizes(t *testing.T) {
	type pt struct {
		dpus int
		pat  collective.Pattern
	}
	var points []pt
	for _, d := range []int{64, 128, 256, 512} {
		for _, pat := range []collective.Pattern{collective.AllReduce,
			collective.AllGather, collective.ReduceScatter, collective.AllToAll} {
			points = append(points, pt{dpus: d, pat: pat})
		}
	}
	run := func(workers int) []string {
		out, _, err := sweep.Run(points, func(ctx *sweep.Context, p pt) (string, error) {
			return collectivePoint(ctx.Cache, p.dpus, p.pat)
		}, sweep.WithWorkers(workers), sweep.WithCache(core.NewPlanCache()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	ref := run(1)
	for _, w := range poolSizes[1:] {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d point %d diverged:\nserial:   %s\nparallel: %s",
					w, i, ref[i], got[i])
			}
		}
	}
}

// TestDeterministicWithFaults extends the property to fault-injected
// backends: seeded fault placement plus the recovery ladder must replay
// identically at every pool size. (Faulted networks bypass the shared plan
// cache by design; the cache is still attached to exercise that path.)
func TestDeterministicWithFaults(t *testing.T) {
	specs := []faults.Spec{
		{Seed: 7, FailedChipPaths: 1},
		{Seed: 11, DegradedLinks: 2},
		{Seed: 13, CorruptProb: 0.2},
		{Seed: 17, FailedRings: 1},
	}
	run := func(workers int) []string {
		out, _, err := sweep.Run(specs, func(_ *sweep.Context, spec faults.Spec) (string, error) {
			return faultyPoint(256, spec)
		}, sweep.WithWorkers(workers), sweep.WithCache(core.NewPlanCache()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	ref := run(1)
	for _, w := range poolSizes[1:] {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d fault point %d diverged:\nserial:   %s\nparallel: %s",
					w, i, ref[i], got[i])
			}
		}
	}
}

// TestRunContextCancellation: cancelling mid-run fails the not-yet-started
// points with context.Canceled while already-running points finish; the
// returned error is the lowest-indexed failure.
func TestRunContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			points := make([]int, 64)
			for i := range points {
				points[i] = i
			}
			var ran atomic.Int64
			results, _, err := sweep.Run(points, func(c *sweep.Context, p int) (int, error) {
				if c.Ctx == nil {
					t.Error("point saw nil Ctx")
				}
				if ran.Add(1) == int64(workers) {
					cancel() // every in-flight point observed; cancel the rest
				}
				return p * 2, nil
			}, sweep.WithWorkers(workers), sweep.WithContext(ctx))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := ran.Load(); got == int64(len(points)) {
				t.Fatalf("cancellation did not skip any point (%d ran)", got)
			}
			// Points that did run still produced their deterministic values.
			ok := 0
			for i, r := range results {
				if r == points[i]*2 {
					ok++
				}
			}
			if ok == 0 {
				t.Fatal("no completed point kept its result")
			}
		})
	}
}

// TestRunContextErrorRule: a real point failure at a lower index than the
// cancellation-skipped points is the error Run reports.
func TestRunContextErrorRule(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	points := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, _, err := sweep.Run(points, func(c *sweep.Context, p int) (int, error) {
		if p == 1 {
			cancel()
			return 0, boom
		}
		return p, nil
	}, sweep.WithWorkers(1), sweep.WithContext(ctx))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the point-1 failure", err)
	}
	if !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("err = %v, want it attributed to point 1", err)
	}
}

// TestRunContextDeadline: an already-expired deadline skips every point.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	var ran atomic.Int64
	_, _, err := sweep.Run([]int{1, 2, 3}, func(c *sweep.Context, p int) (int, error) {
		ran.Add(1)
		return p, nil
	}, sweep.WithWorkers(2), sweep.WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d points ran after the deadline", ran.Load())
	}
	if !strings.Contains(err.Error(), "point 0") {
		t.Fatalf("err = %v, want the lowest-indexed point reported", err)
	}
}
