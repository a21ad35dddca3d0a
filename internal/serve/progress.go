package serve

import "context"

// The progress seam: executors report completion incrementally to whoever
// hung a ProgressFunc on the request context. The async job manager is the
// only producer of such contexts today — synchronous requests carry no
// progress function, so the seam costs them one nil context lookup.
//
// The function travels by context (rather than threading a parameter
// through every execution signature) because progress crosses package
// boundaries: serve's point pipeline emits per-point events, while a cluster
// coordinator emits per-chunk events from its own dispatch goroutines, both
// into the same consumer.

// ProgressEvent is one incremental completion report.
type ProgressEvent struct {
	// Done and Total count completed vs. scheduled grid points. Done is
	// monotone within one execution.
	Done, Total int
	// Chunk is the completed cluster chunk's index, or -1 for single-point
	// progress from a local sweep.
	Chunk int
	// Points holds the just-completed deterministic results, when the
	// executor has them in wire form (collective sweep points; nil for NoC
	// sweeps and pure counts).
	Points []SweepPoint
}

// ProgressFunc consumes progress events. Implementations must be safe for
// concurrent calls only if the producer documents concurrency; serve and
// cluster both serialize their emissions.
type ProgressFunc func(ProgressEvent)

type progressKey struct{}

// WithProgress returns a context that carries fn for executors to report
// incremental completion into. A nil fn clears any inherited function — a
// cluster coordinator does that before running chunks locally, so the
// chunk's inner per-point events cannot double-count against the
// coordinator's own per-chunk events.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressFromContext returns the context's progress function, or nil.
func ProgressFromContext(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

// gateWaitKey marks contexts whose executions wait for an admission slot
// instead of shedding (async jobs).
type gateWaitKey struct{}

func withGateWait(ctx context.Context) context.Context {
	return context.WithValue(ctx, gateWaitKey{}, true)
}

func gateWaitFromContext(ctx context.Context) bool {
	v, _ := ctx.Value(gateWaitKey{}).(bool)
	return v
}
