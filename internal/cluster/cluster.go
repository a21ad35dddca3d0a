// Package cluster scales pimnetd from one process to a coordinated fleet:
// a coordinator splits a /v1/sweep grid into contiguous chunks, fans them
// over N pimnetd workers via POST /v1/chunk, and reassembles the results
// deterministically.
//
// Robustness is the headline, and every mechanism preserves the sweep
// engine's determinism contract (DESIGN.md §8):
//
//   - Placement: chunks map to workers by consistent hashing on the chunk's
//     first plan-key digest, so identical experiment points land on the
//     worker that already compiled their plans, and worker loss reshuffles
//     only the lost worker's chunks — the failover order for any key is a
//     deterministic ring walk.
//   - Health: a registry drives an eject/readmit state machine from
//     periodic /healthz probes and dispatch outcomes. EjectAfter
//     consecutive failures stop a worker's traffic; ReadmitAfter
//     consecutive probe successes earn it back.
//   - Retries: failed dispatches re-dispatch with capped exponential
//     backoff plus jitter, rotating through the ring's failover order.
//   - Hedging: a chunk that stalls past HedgeAfter is re-dispatched to the
//     next worker; the first response wins and duplicates are discarded
//     (and verified identical at reassembly — simulations are
//     deterministic, so a disagreeing duplicate is a loud error).
//   - Degradation: when no healthy worker remains, or a chunk exhausts its
//     remote attempts, the coordinator runs the chunk locally. A shrinking
//     fleet slows the sweep; it never changes its bytes.
//
// None of this machinery can alter results: every path — remote, retried,
// hedged, local — executes the same deterministic points, and Assemble
// verifies coverage and duplicate agreement before a response leaves the
// coordinator. The tests' chaos transport (WithChaos, chaos_test.go) makes
// that claim testable: any seeded schedule of connection failures, 5xxs,
// latency spikes, truncated bodies, and mid-chunk worker kills must yield
// bytes identical to the single-node sweep.
//
// The coordinator's counters (chunks, retries, hedges, local runs, probes,
// per-worker state) are its observability surface, appended to the
// daemon's GET /metrics by PromFamilies.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pimnet/internal/metrics"
	"pimnet/internal/report"
	"pimnet/internal/serve"
)

// LocalRunner executes one chunk on the coordinator itself — the
// graceful-degradation path. cmd/pimnetd wires serve.(*Server).RunChunk
// here; failures must be *serve.PointError with chunk-local indices.
type LocalRunner func(ctx context.Context, req serve.ChunkRequest) ([]serve.SweepPoint, error)

// Config parameterizes a Coordinator. The zero value of every field
// selects a production-shaped default; Workers and Local are required. The
// coordinator receives each sweep already normalized and capped by the
// serving tier (serve.Config.MaxSweepPoints), so nothing here bounds or
// re-validates a grid.
type Config struct {
	// Workers are the fleet's base URLs, e.g. "http://10.0.0.1:8080". An
	// empty fleet is legal: every chunk runs locally.
	Workers []string
	// Local runs orphaned chunks on the coordinator (required).
	Local LocalRunner

	// ChunkSize is the number of grid points per chunk (default 8). A
	// sweep dispatches at most twice the fleet size (minimum 2) of its
	// chunks at once.
	ChunkSize int

	// ChunkTimeout is the per-dispatch-attempt deadline (default 30s).
	ChunkTimeout time.Duration
	// MaxAttempts is the number of remote dispatch rounds per chunk before
	// degrading to local execution (default 3).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between a chunk's dispatch rounds (defaults 50ms and 2s); the actual
	// wait is uniformly jittered in [d/2, d).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeAfter is how long a dispatch may straggle before a duplicate is
	// hedged to the next worker (default 500ms; negative disables
	// hedging).
	HedgeAfter time.Duration

	// ProbeInterval is the period of the /healthz health probes (default
	// 2s); each probe times out after 1s.
	ProbeInterval time.Duration
	// EjectAfter consecutive probe/dispatch failures eject a worker
	// (default 3); ReadmitAfter consecutive probe successes readmit it
	// (default 2).
	EjectAfter   int
	ReadmitAfter int

	// Transport is the HTTP transport for dispatches and probes (nil
	// selects http.DefaultTransport). Tests wrap it with a chaos transport.
	Transport http.RoundTripper
	// Seed seeds the backoff jitter (default 1). Jitter never affects
	// results, only timing.
	Seed int64
}

// probeTimeout bounds one /healthz probe.
const probeTimeout = time.Second

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 8
	}
	if c.ChunkTimeout <= 0 {
		c.ChunkTimeout = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 2 * time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 500 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Coordinator owns a worker fleet and serves distributed sweeps. It
// implements serve.SweepRunner.
type Coordinator struct {
	cfg         Config
	reg         *registry
	ring        *ring
	met         Metrics
	client      *http.Client
	probeClient *http.Client
	maxInFlight int // concurrently dispatched chunks per sweep
	sweepSeq    atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	probeStop context.CancelFunc
	probeWG   sync.WaitGroup
}

// New builds a Coordinator from cfg. Workers start healthy (optimistic
// admission): the first evidence of trouble comes from probes or dispatch
// failures, not a startup barrier, so a cluster serves as soon as it boots.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Local == nil {
		return nil, errors.New("cluster: Config.Local is required (the degradation path has nowhere to run)")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for _, w := range cfg.Workers {
		if w == "" {
			return nil, errors.New("cluster: empty worker URL")
		}
		if seen[w] {
			return nil, fmt.Errorf("cluster: duplicate worker URL %q", w)
		}
		seen[w] = true
	}
	c := &Coordinator{
		cfg:         cfg,
		ring:        buildRing(cfg.Workers),
		client:      &http.Client{Transport: cfg.Transport},
		probeClient: &http.Client{Transport: cfg.Transport, Timeout: probeTimeout},
		maxInFlight: max(2, 2*len(cfg.Workers)),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
	c.reg = newRegistry(cfg.Workers, cfg.EjectAfter, cfg.ReadmitAfter, &c.met)
	return c, nil
}

// Start launches the periodic health-probe loop. Close stops it.
func (c *Coordinator) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	c.probeStop = cancel
	c.probeWG.Add(1)
	go func() {
		defer c.probeWG.Done()
		ticker := time.NewTicker(c.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.reg.probeAll(ctx, c.probeClient)
			}
		}
	}()
}

// Close stops the probe loop and waits for it to exit.
func (c *Coordinator) Close() {
	if c.probeStop != nil {
		c.probeStop()
		c.probeWG.Wait()
	}
}

// chunkSpan is one chunk's half-open global index range.
type chunkSpan struct{ start, end int }

// chunkSpans slices n points into contiguous chunks of at most size.
func chunkSpans(n, size int) []chunkSpan {
	spans := make([]chunkSpan, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		spans = append(spans, chunkSpan{start, end})
	}
	return spans
}

// RunSweep implements serve.SweepRunner: slice the normalized grid into
// chunks placed by their first point's plan key, fan them over the fleet,
// reassemble deterministically. Every chunk runs to completion even when
// another fails — exactly like the single-node sweep engine — and the
// returned error is the lowest-indexed failing point's (chunks are
// contiguous index ranges processed in order, so the first failing chunk
// holds the globally lowest failing point).
func (c *Coordinator) RunSweep(ctx context.Context, req serve.SweepRequest, grid []serve.GridPoint, keys []string) (*serve.SweepResponse, error) {
	c.met.sweeps.Add(1)
	start := time.Now()
	base := serve.ChunkRequest{
		Backend:  req.Backend,
		Pattern:  req.Pattern,
		Op:       req.Op,
		ElemSize: req.ElemSize,
		SweepID:  fmt.Sprintf("sweep-%d", c.sweepSeq.Add(1)),
	}

	spans := chunkSpans(len(grid), c.cfg.ChunkSize)
	results := make([]ChunkResult, len(spans))
	errs := make([]error, len(spans))

	// Per-chunk progress for async jobs: the coordinator reports cumulative
	// completion as each chunk lands, serialized under progressMu. The
	// progress function is cleared from the execution context first, so a
	// chunk degrading to local execution cannot also emit the chunk's inner
	// per-point events — chunk completion is counted exactly once, here.
	progress := serve.ProgressFromContext(ctx)
	var progressMu sync.Mutex
	progressDone := 0
	ctx = serve.WithProgress(ctx, nil)

	sem := make(chan struct{}, c.maxInFlight)
	var wg sync.WaitGroup
	for i, sp := range spans {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sp chunkSpan) {
			defer wg.Done()
			defer func() { <-sem }()
			pts, err := c.runChunk(ctx, base, i, sp.start, grid[sp.start:sp.end], keys[sp.start])
			results[i] = ChunkResult{Start: sp.start, Points: pts}
			errs[i] = err
			if progress != nil && err == nil {
				progressMu.Lock()
				progressDone += len(pts)
				progress(serve.ProgressEvent{Done: progressDone, Total: len(grid), Chunk: i, Points: pts})
				progressMu.Unlock()
			}
		}(i, sp)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	assembled, err := Assemble(len(grid), results)
	if err != nil {
		return nil, err
	}
	stats := metrics.SweepStats{Points: len(grid), Workers: c.reg.healthyCount(), Wall: time.Since(start)}
	return &serve.SweepResponse{
		Backend: req.Backend,
		Pattern: req.Pattern,
		Points:  assembled,
		Stats:   report.NewSweepStatsJSON(stats),
	}, nil
}

// runChunk drives one chunk to a result: ring-placed dispatch, retries
// with backoff across the failover order, and finally local execution.
// Only a deterministic point failure (*serve.PointError, remapped to the
// global index) or cancellation terminates a chunk unresolved — transport
// trouble always degrades to the local path, which cannot lose.
func (c *Coordinator) runChunk(ctx context.Context, base serve.ChunkRequest, chunkIdx, start int,
	pts []serve.GridPoint, key string) ([]serve.SweepPoint, error) {
	req := base
	req.Points = pts
	req.Chunk = chunkIdx
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding chunk %d: %w", chunkIdx, err)
	}
	c.met.chunks.Add(1)
	order := c.ring.order(key)

	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		primary, backup := c.pick(order, attempt)
		if primary == nil {
			break // fleet gone: degrade immediately
		}
		if attempt > 0 {
			c.met.retries.Add(1)
			if err := c.sleepBackoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		res, err := c.attemptChunk(ctx, body, start, primary, backup)
		if err == nil {
			if len(res) != len(pts) {
				// A worker answered with the wrong shape: corrupt response,
				// treat like transport failure and keep going.
				c.met.dispatchErrs.Add(1)
				continue
			}
			return res, nil
		}
		var pe *serve.PointError
		if errors.As(err, &pe) {
			return nil, err // deterministic simulation failure: final
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}

	// Graceful degradation: the coordinator is always a worker of last
	// resort, so fleet loss shrinks throughput, never availability.
	c.met.localRuns.Add(1)
	res, lerr := c.cfg.Local(ctx, req)
	if lerr != nil {
		var pe *serve.PointError
		if errors.As(lerr, &pe) {
			return nil, &serve.PointError{Index: start + pe.Index, Err: pe.Err}
		}
		return nil, lerr
	}
	return res, nil
}

// pick selects the attempt's primary worker and its hedge backup from the
// key's ring order, filtered to currently healthy workers. Rotating by
// attempt walks the deterministic failover sequence.
func (c *Coordinator) pick(order []int, attempt int) (primary, backup *workerInfo) {
	healthy := make([]*workerInfo, 0, len(order))
	for _, idx := range order {
		if w := c.reg.workers[idx]; w.healthy() {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) == 0 {
		return nil, nil
	}
	primary = healthy[attempt%len(healthy)]
	if len(healthy) > 1 {
		backup = healthy[(attempt+1)%len(healthy)]
	}
	return primary, backup
}

// dispatchOutcome is one dispatch attempt's result.
type dispatchOutcome struct {
	w   *workerInfo
	pts []serve.SweepPoint
	err error
}

// attemptChunk runs one dispatch round: the primary worker, plus a hedged
// duplicate on backup if the primary straggles past HedgeAfter. The first
// successful response wins; the loser's context is cancelled and its
// response discarded (reassembly re-verifies any duplicate that still
// lands). A deterministic point failure from either copy wins immediately
// — both copies run the same points, so they cannot disagree.
func (c *Coordinator) attemptChunk(ctx context.Context, body []byte, start int,
	primary, backup *workerInfo) ([]serve.SweepPoint, error) {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan dispatchOutcome, 2)
	launch := func(w *workerInfo) {
		go func() {
			pts, err := c.dispatch(dctx, w, body, start)
			results <- dispatchOutcome{w: w, pts: pts, err: err}
		}()
	}
	launch(primary)
	inFlight := 1

	var hedge <-chan time.Time
	if backup != nil && c.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(c.cfg.HedgeAfter)
		defer timer.Stop()
		hedge = timer.C
	}

	var lastErr error
	for inFlight > 0 {
		select {
		case <-hedge:
			hedge = nil
			c.met.hedges.Add(1)
			launch(backup)
			inFlight++
		case out := <-results:
			inFlight--
			if out.err == nil {
				c.reg.markSuccess(out.w)
				return out.pts, nil
			}
			var pe *serve.PointError
			if errors.As(out.err, &pe) {
				// The worker is fine; the simulation failed deterministically.
				c.reg.markSuccess(out.w)
				return nil, out.err
			}
			c.reg.markFailure(out.w)
			c.met.dispatchErrs.Add(1)
			lastErr = out.err
		}
	}
	return nil, lastErr
}

// dispatch issues one POST /v1/chunk to w and classifies the outcome:
// decoded points on 200, a global-indexed *serve.PointError on a
// structured 422, and a retryable error for everything else (transport
// failures, 5xx, truncated or malformed bodies).
func (c *Coordinator) dispatch(ctx context.Context, w *workerInfo, body []byte, start int) ([]serve.SweepPoint, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ChunkTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.addr+"/v1/chunk", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s response: %w", w.addr, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var cr serve.ChunkResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			return nil, fmt.Errorf("cluster: decoding %s response: %w", w.addr, err)
		}
		return cr.Points, nil
	case http.StatusUnprocessableEntity:
		pe, perr := serve.DecodeChunkError(raw)
		if perr != nil {
			return nil, fmt.Errorf("cluster: %s: unreadable chunk error (%v): %s", w.addr, perr, truncateForLog(raw))
		}
		return nil, &serve.PointError{Index: start + pe.Index, Err: pe.Err}
	default:
		return nil, fmt.Errorf("cluster: %s answered %d: %s", w.addr, resp.StatusCode, truncateForLog(raw))
	}
}

// sleepBackoff waits the attempt's capped, jittered exponential backoff,
// aborting early on cancellation.
func (c *Coordinator) sleepBackoff(ctx context.Context, attempt int) error {
	timer := time.NewTimer(c.backoff(attempt))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the wait before the given attempt (attempt >= 1):
// exponential in the attempt, capped at BackoffCap, uniformly jittered in
// [d/2, d) so synchronized retries decorrelate.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < attempt && d < c.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffCap {
		d = c.cfg.BackoffCap
	}
	half := d / 2
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(half) + 1))
	c.rngMu.Unlock()
	return half + j
}

// truncateForLog bounds an error body for inclusion in an error string.
func truncateForLog(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
