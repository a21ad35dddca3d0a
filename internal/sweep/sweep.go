// Package sweep runs independent experiment points on a bounded goroutine
// worker pool with deterministic, order-independent result assembly.
//
// Determinism contract: Run(points, fn) returns exactly the slice a serial
// loop over points would produce, regardless of worker count or completion
// order, provided fn is a pure function of its point — it must build every
// piece of simulation state it mutates (networks, engines, backends,
// machines) itself. The simulator enforces the hard part by construction:
// sim.Engine and sim.Link are documented single-owner types, and every
// experiment point constructs its own. The only state fn may share is the
// plan cache, whose entries are immutable results behind a mutex; a hit
// returns exactly what the miss computed, so results stay bit-identical
// whether a point was compiled or taken from the cache.
//
// Errors are deterministic too: when points fail, Run reports the error of
// the lowest-indexed failing point, no matter which worker hit an error
// first in wall-clock order.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pimnet/internal/core"
	"pimnet/internal/metrics"
)

// Options configures a sweep run.
type Options struct {
	// Workers bounds the goroutine pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Cache is the shared compiled-plan cache handed to every point via
	// Context. Nil disables plan sharing (each point compiles for itself).
	Cache *core.PlanCache
	// Agg, when non-nil, accumulates this run's SweepStats (harnesses that
	// chain several sweeps merge into one aggregate for reporting).
	Agg *metrics.SweepStats
	// Ctx cancels the run: points not yet started when Ctx is done are
	// skipped and recorded as failed with Ctx's error. Nil means Background.
	Ctx context.Context
	// Progress, when non-nil, is called after each point finishes (success
	// or failure) with the number of points completed so far and the total.
	// Calls are serialized and done is strictly monotone, so consumers can
	// publish it without their own locking. Points skipped by cancellation
	// are not counted — done reaches total only on a full run.
	Progress func(done, total int)
}

// Option mutates Options.
type Option func(*Options)

// WithWorkers bounds the worker pool.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithCache shares a compiled-plan cache across the sweep's points.
func WithCache(c *core.PlanCache) Option { return func(o *Options) { o.Cache = c } }

// WithStats merges the run's execution stats into agg.
func WithStats(agg *metrics.SweepStats) Option { return func(o *Options) { o.Agg = agg } }

// WithProgress reports incremental completion: fn is called after every
// finished point with (done, total). The serving tier's async jobs hang
// their progress stream here.
func WithProgress(fn func(done, total int)) Option { return func(o *Options) { o.Progress = fn } }

// WithContext makes the run abort promptly on ctx cancellation or deadline:
// workers check ctx between points, so at most Workers in-flight points run
// to completion after cancellation. Skipped points fail with ctx's error,
// and the deterministic lowest-index error rule still applies — when points
// failed on their own before cancellation, the lowest-indexed failure (of
// either kind) is the one reported.
func WithContext(ctx context.Context) Option { return func(o *Options) { o.Ctx = ctx } }

// Build resolves a final Options from defaults plus opts.
func Build(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// Context is handed to every point function.
type Context struct {
	// Index is the point's position in the input slice.
	Index int
	// Cache is the sweep-wide compiled-plan cache (nil when disabled).
	// Attach it to PIMnet backends with WithPlanCache.
	Cache *core.PlanCache
	// Ctx is the run's cancellation context (never nil). Long point
	// functions should check it between expensive stages; the pool itself
	// only checks between points.
	Ctx context.Context
}

// Run evaluates fn over every point on a bounded worker pool and returns
// the results in point order plus the run's execution statistics. All
// points run to completion even when some fail; the returned error is the
// lowest-indexed point's error (nil when every point succeeded), and the
// result slice holds fn's value for every point that did succeed. Under
// WithContext, cancellation fails every not-yet-started point with the
// context's error while points already executing finish normally.
func Run[P, R any](points []P, fn func(*Context, P) (R, error), opts ...Option) ([]R, metrics.SweepStats, error) {
	o := Build(opts...)
	workers := o.Workers
	if workers > len(points) {
		workers = len(points)
	}
	if o.Progress != nil {
		inner := fn
		var mu sync.Mutex
		completed, total := 0, len(points)
		fn = func(c *Context, p P) (R, error) {
			// Count in a defer so even a panicking point (recovered into an
			// error by runPoint) registers as finished.
			defer func() {
				mu.Lock()
				completed++
				o.Progress(completed, total)
				mu.Unlock()
			}()
			return inner(c, p)
		}
	}

	results := make([]R, len(points))
	errs := make([]error, len(points))
	wall := make([]time.Duration, len(points))

	var cacheBefore core.CacheStats
	if o.Cache != nil {
		cacheBefore = o.Cache.Stats()
	}
	start := time.Now()

	if workers <= 1 {
		for i := range points {
			runPoint(o, i, points, results, errs, wall, fn)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					runPoint(o, i, points, results, errs, wall, fn)
				}
			}()
		}
		for i := range points {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	stats := metrics.SweepStats{
		Points:  len(points),
		Workers: o.Workers,
		Wall:    time.Since(start),
	}
	for _, d := range wall {
		stats.PointWall.Add(d)
	}
	if o.Cache != nil {
		delta := o.Cache.Stats().Sub(cacheBefore)
		stats.CacheHits, stats.CacheMisses, stats.CacheEntries = delta.Hits, delta.Misses, delta.Entries
	}
	if o.Agg != nil {
		o.Agg.Merge(stats)
	}
	for i, err := range errs {
		if err != nil {
			return results, stats, fmt.Errorf("sweep: point %d: %w", i, err)
		}
	}
	return results, stats, nil
}

// runPoint executes one point, recovering panics into errors so a single
// bad point cannot take down the whole pool. Once the run's context is done
// the point is skipped entirely and recorded as failed with the context's
// error — this is what makes cancellation prompt regardless of how many
// points remain queued.
func runPoint[P, R any](o Options, i int, points []P, results []R, errs []error,
	wall []time.Duration, fn func(*Context, P) (R, error)) {
	if err := o.Ctx.Err(); err != nil {
		errs[i] = err
		return
	}
	start := time.Now()
	defer func() {
		wall[i] = time.Since(start)
		if r := recover(); r != nil {
			errs[i] = fmt.Errorf("panic: %v", r)
		}
	}()
	results[i], errs[i] = fn(&Context{Index: i, Cache: o.Cache, Ctx: o.Ctx}, points[i])
}
