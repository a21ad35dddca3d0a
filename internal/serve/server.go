// Package serve exposes the simulator as a long-running HTTP/JSON service —
// the serving tier the daemon cmd/pimnetd wraps. Every experiment request
// decodes into a list of points (a collective, a workload run, or a NoC
// pattern cell), and every list runs through one pipeline (exec.go):
//
//	decode/validate -> coalesce -> admit -> execute (store lookup, else simulate + write-behind) -> render
//
// with three production shapes carrying the load:
//
//   - Admission control: at most MaxInFlight requests execute concurrently
//     and at most QueueDepth more wait. Beyond that the server sheds load
//     with 503 + Retry-After instead of growing goroutines without bound.
//   - Point coalescing: results are deterministic functions of the point, so
//     concurrent requests for the same point — from any endpoint — share
//     one execution, and each renders the shared result into its own body.
//   - Shared-cache batching: all requests go through the server's one
//     core.PlanCache of healthy collective results. Faulted and traced
//     backends bypass the cache in both directions, so a result cached by
//     any request answers every later one without building a network.
//
// Per-request deadlines propagate via context.Context into admission waits
// and sweep scheduling. Shutdown drains: in-flight requests complete, new
// ones are refused with 503.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimnet/internal/core"
	"pimnet/internal/metrics"
	"pimnet/internal/store"
)

// Config parameterizes a Server. The zero value selects production-shaped
// defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (<=0 selects
	// GOMAXPROCS).
	MaxInFlight int
	// QueueDepth bounds requests waiting for an execution slot (<0 selects
	// 4*MaxInFlight; 0 disables queueing: busy means reject).
	QueueDepth int
	// Timeout is the per-request deadline, covering queue wait and
	// execution (<=0 selects 30s).
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies (<=0 selects 1 MiB).
	MaxBodyBytes int64
	// MaxSweepPoints bounds one sweep request's grid (<=0 selects 4096).
	MaxSweepPoints int
	// MaxSweepWorkers bounds one sweep request's worker pool (<=0 selects
	// GOMAXPROCS).
	MaxSweepWorkers int
	// Store, when non-nil, is the persistent result store: every point
	// this server executes is answered from it before any simulation runs.
	// With a Sweeper set, /v1/sweep is delegated and bypasses this server's
	// coalescer and store: remote chunks read the workers' stores, and
	// only chunks the coordinator runs locally (RunChunk) read this one.
	// Responses served from the store are byte-identical to
	// recomputation by construction (only completed points are stored, under
	// their full identity, behind blob checksums).
	Store *store.Store
	// Sweeper, when non-nil, replaces local sweep execution: decoded
	// /v1/sweep requests are delegated to it after validation. This is the
	// coordinator-mode hook — cmd/pimnetd plugs in a cluster coordinator
	// that fans the grid over workers via /v1/chunk. Delegated sweeps still
	// pass this server's admission gate, so a coordinator sheds load
	// exactly like a single node. A Sweeper that also implements
	// PromFamilies() []metrics.PromFamily has those families appended to
	// GET /metrics.
	Sweeper SweepRunner
	// MaxJobs bounds concurrently running async jobs (<=0 selects
	// MaxInFlight). Queued jobs wait in per-tenant queues scheduled by
	// deficit round robin; running jobs occupy admission slots like any
	// other execution.
	MaxJobs int
	// JobTTL is how long a finished job's status and result stay fetchable
	// (<=0 selects 15 minutes). Expired jobs answer 404.
	JobTTL time.Duration
	// TenantQuotas maps tenant names to their job quota: the maximum
	// concurrently running jobs per tenant and the tenant's fair-share
	// weight. A quota of 0 rejects the tenant outright (429). Tenants not
	// in the map share the "default" pool, whose quota defaults to MaxJobs
	// unless the map overrides it.
	TenantQuotas map[string]int
}

// SweepRunner executes an already-normalized sweep grid end to end. The
// server expands each /v1/sweep grid once, while decoding it, and hands the
// runner the result: req with defaults applied and names lowercased, grid
// (its points in row-major order) and keys, where keys[i] is grid[i]'s
// plan-key digest, the placement key for plan-cache locality. The
// implementation must honor the sweep determinism contract: the returned
// Points must be exactly what a local sweep.Run over the same grid would
// produce, and failures must report the lowest-indexed failing point
// (return a *PointError with the global index). Context errors abort with
// the context's error.
type SweepRunner interface {
	RunSweep(ctx context.Context, req SweepRequest, grid []GridPoint, keys []string) (*SweepResponse, error)
}

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 4 * c.MaxInFlight
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.MaxSweepWorkers <= 0 {
		c.MaxSweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = c.MaxInFlight
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	return c
}

// Server is the serving core. It implements http.Handler; cmd/pimnetd wraps
// it in an http.Server, and tests drive it through httptest.
type Server struct {
	cfg     Config
	cache   *core.PlanCache
	gate    *gate
	flights flightGroup
	met     serverMetrics
	jobs    *jobManager
	mux     *http.ServeMux

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// testHookExecute, when non-nil, runs inside the admission slot before
	// execution; tests use it to hold slots busy and to observe ordering.
	testHookExecute func()
	// testHookStoreHit, when non-nil, runs after a lone point's store hit
	// (read before admission) and before its flight is finished; tests use
	// it to pile followers onto a store-hit leader.
	testHookStoreHit func()
	// testHookRunPoint, when non-nil, runs before every point simulation;
	// tests use it to count simulations and to make a point panic.
	testHookRunPoint func(point)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: core.NewPlanCache(),
		gate:  newGate(cfg.MaxInFlight, cfg.QueueDepth),
		mux:   http.NewServeMux(),
	}
	s.met.start = time.Now()
	s.jobs = newJobManager(s)

	// route registers the handler under its method pattern plus a
	// method-less fallback on the same path, so a wrong-method hit gets the
	// enveloped 405 (with Allow) instead of net/http's plain-text default.
	route := func(method, path string, h http.HandlerFunc) {
		s.mux.HandleFunc(method+" "+path, h)
		s.mux.HandleFunc(path, s.methodNotAllowed(method))
	}
	route("POST", "/v1/simulate", s.handleBatch(&s.met.simulate, decodeSimulate))
	route("POST", "/v1/sweep", s.handleBatch(&s.met.sweep, decodeSweep))
	route("POST", "/v1/noc/sweep", s.handleBatch(&s.met.nocSweep, decodeNocSweep))
	route("POST", "/v1/chunk", s.handleBatch(&s.met.chunk, decodeChunk))
	route("POST", "/v1/jobs", s.handleJobSubmit)
	route("GET", "/v1/jobs/{id}", s.handleJobStatus)
	route("GET", "/v1/jobs/{id}/result", s.handleJobResult)
	route("GET", "/v1/jobs/{id}/events", s.handleJobEvents)
	route("GET", "/healthz", s.handleHealthz)
	route("GET", "/metrics", s.handleMetricsProm)
	// Everything else is an enveloped 404 — including /metrics.json, the
	// deprecated JSON snapshot removed after its one-release grace period.
	s.mux.HandleFunc("/", s.handleNotFound)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: new experiment requests and job submissions
// are refused with 503 while work already admitted runs to completion.
// Queued jobs are marked interrupted immediately (they never started, so
// there is nothing to wait for); running jobs get until ctx's deadline,
// after which they are cancelled and persisted as interrupted — resubmitting
// the same payload resumes warm, because every point completed before the
// interruption is already in the result store. Shutdown returns nil once
// every in-flight synchronous request has finished and every job has either
// finished or been interrupted; it returns ctx's error only when
// synchronous requests are still running at the deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.jobs.drain()

	syncDone := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(syncDone)
	}()
	jobsDone := make(chan struct{})
	go func() {
		s.jobs.waitRunning()
		close(jobsDone)
	}()

	syncOK, jobsOK := false, false
	for !syncOK || !jobsOK {
		select {
		case <-syncDone:
			syncOK = true
			syncDone = nil
		case <-jobsDone:
			jobsOK = true
			jobsDone = nil
		case <-ctx.Done():
			if !jobsOK {
				s.jobs.interruptRunning()
			}
			if !syncOK {
				return ctx.Err()
			}
			return nil
		}
	}
	return nil
}

// begin registers an experiment request with the drain tracker; it reports
// false once draining has started.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// okResponse renders v as a 200. Marshal failures are impossible for the
// response types (plain data, no cycles), so they are programming errors.
func okResponse(v any) response {
	body, err := json.Marshal(v)
	if err != nil {
		return errorResponse(http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
	}
	return response{status: http.StatusOK, body: body}
}

// write emits a rendered response and records its status class.
func (s *Server) write(w http.ResponseWriter, resp response) {
	s.met.recordStatus(resp.status)
	w.Header().Set("Content-Type", "application/json")
	if resp.retryAfter {
		w.Header().Set("Retry-After", retryAfterSeconds())
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// decoder turns one experiment payload into its batch. The POST handlers
// and the job submitter share the decoders, so a job decodes exactly as its
// synchronous endpoint would.
type decoder func(s *Server, r io.Reader) (*batch, error)

// handleBatch is the one experiment handler: count -> begin (drain
// tracking) -> deadline -> decode -> run -> write.
func (s *Server) handleBatch(requests *atomic.Uint64, decode decoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if !s.begin() {
			s.met.rejected.Add(1)
			s.write(w, drainingResponse())
			return
		}
		defer s.inflight.Done()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()

		b, err := decode(s, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			s.write(w, errorResponse(http.StatusBadRequest, err))
			return
		}
		s.write(w, s.run(ctx, b))
	}
}

// executeDelegatedSweep hands a normalized sweep grid to the configured
// SweepRunner (coordinator mode) and maps its failure classes: context
// errors to 504/499, deterministic point failures to the same 422 a local
// execution renders, and anything else — the cluster genuinely could not
// complete the sweep — to 502.
func (s *Server) executeDelegatedSweep(ctx context.Context, req SweepRequest, grid []GridPoint, keys []string) response {
	resp, err := s.cfg.Sweeper.RunSweep(ctx, req, grid, keys)
	if err != nil {
		if ctx.Err() != nil {
			return deadlineResponse(ctx.Err())
		}
		var pe *PointError
		if errors.As(err, &pe) {
			return pointErrorResponse(pe, false)
		}
		return errorResponse(http.StatusBadGateway, err)
	}
	return okResponse(*resp)
}

// executeGated runs fn inside the bounded admission gate with panic
// recovery, maintaining the in-flight gauge and the latency histogram.
func (s *Server) executeGated(ctx context.Context, fn func(context.Context) response) (resp response) {
	start := time.Now()
	defer func() { s.met.latency.observe(time.Since(start)) }()

	// Async jobs wait for a slot instead of shedding: the job scheduler
	// already bounds how many run, so fail-fast saturation would only turn
	// an admitted job into a spurious 503 result.
	if gateWaitFromContext(ctx) {
		if err := s.gate.acquireWait(ctx); err != nil {
			return deadlineResponse(err)
		}
	} else if err := s.gate.acquire(ctx); err != nil {
		if errors.Is(err, errSaturated) {
			s.met.rejected.Add(1)
			return overloadResponse("admission queue saturated")
		}
		return deadlineResponse(err)
	}
	defer s.gate.release()

	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	defer func() {
		if r := recover(); r != nil {
			resp = errorResponse(http.StatusInternalServerError, fmt.Errorf("internal panic: %v", r))
		}
	}()
	if s.testHookExecute != nil {
		s.testHookExecute()
	}
	return fn(ctx)
}

// handleHealthz reports liveness; during drain it turns 503 so load
// balancers stop routing here before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.healthz.Add(1)
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status, state := http.StatusOK, "ok"
	if draining {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	body, _ := json.Marshal(map[string]any{
		"status":         state,
		"uptime_seconds": time.Since(s.met.start).Seconds(),
	})
	s.write(w, response{status: status, body: body})
}

// handleMetricsProm serves GET /metrics as Prometheus text exposition.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	s.met.metrics.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	metrics.WriteProm(w, s.promFamilies())
}
