package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pimnet/internal/store"
)

// The async job layer: POST /v1/jobs accepts any simulate/sweep/noc-sweep
// payload plus a tenant, queues it in that tenant's pool, and returns a job
// ID immediately; GET /v1/jobs/{id} polls status with partial results, and
// GET /v1/jobs/{id}/events streams progress over SSE. A job decodes through
// its endpoint's decoder and runs the same point pipeline (Server.run), so a
// finished job's result bytes are identical to the synchronous endpoint's by
// construction — same coalescer, same store, same renderer.
//
// Scheduling is deficit round robin over per-tenant queues: each pool
// accumulates quantum (scaled by its quota) per scheduler visit and
// dispatches its head job when the accumulated deficit covers the job's
// cost (its grid point count). One dispatch per visit rotates the pool to
// the back, so a tenant that submits 10x the load gets served in strict
// rotation with everyone else — bounded spread, no starvation. Quotas also
// cap each tenant's concurrently running jobs; quota 0 shuts a tenant out
// entirely (429), and tenants without a quota share the "default" pool.

// Job states.
const (
	jobQueued      = "queued"
	jobRunning     = "running"
	jobDone        = "done"
	jobFailed      = "failed"
	jobInterrupted = "interrupted"
)

// drrQuantum is the deficit credited per scheduler visit to a pool with
// quota 1, in grid points. Pools with larger quotas accrue proportionally
// more, so quota doubles as fair-share weight.
const drrQuantum = 32

// JobRequest is the wire form of POST /v1/jobs.
type JobRequest struct {
	// Kind selects the embedded payload's endpoint: "simulate", "sweep", or
	// "noc_sweep".
	Kind string `json:"kind"`
	// Tenant names the submitting tenant (empty selects "default").
	// Tenants with a configured quota get their own scheduling pool;
	// everyone else shares the default pool.
	Tenant string `json:"tenant,omitempty"`
	// Request is the payload, exactly as the synchronous endpoint would
	// accept it.
	Request json.RawMessage `json:"request"`
}

// JobView is the wire form of a job's status (202 on submit, 200 on polls,
// and the SSE status/done event payloads).
type JobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant"`
	// Pool is the scheduling pool the job landed in ("default" unless the
	// tenant has its own quota).
	Pool   string `json:"pool"`
	Status string `json:"status"`
	// PointsDone/PointsTotal track execution progress (grid points; 1 for
	// simulate jobs).
	PointsDone  int   `json:"points_done"`
	PointsTotal int   `json:"points_total"`
	CreatedMs   int64 `json:"created_unix_ms"`
	StartedMs   int64 `json:"started_unix_ms,omitempty"`
	FinishedMs  int64 `json:"finished_unix_ms,omitempty"`
	// Chunk is the most recently completed cluster chunk index (-1 until a
	// coordinator reports one).
	Chunk int `json:"chunk,omitempty"`
	// ResultStatus is the finished result's HTTP status (fetch the body at
	// /v1/jobs/{id}/result).
	ResultStatus int `json:"result_status,omitempty"`
	// Error carries the failure detail of failed/interrupted jobs.
	Error *ErrorDetail `json:"error,omitempty"`
	// Partial holds completed sweep points in completion order — the
	// poll-time preview. The canonical grid-ordered result is only at
	// /result once the job finishes.
	Partial []SweepPoint `json:"partial,omitempty"`
}

// job is one tracked submission. All fields past the closures are guarded
// by the manager's mutex.
type job struct {
	id     string
	kind   string
	tenant string
	pool   string
	cost   int
	run    func(ctx context.Context) response

	state     string
	done      int
	total     int
	lastChunk int
	partial   []SweepPoint
	result    response
	errDetail *ErrorDetail
	created   time.Time
	started   time.Time
	finished  time.Time
	finSeq    uint64
	cancel    context.CancelFunc
	doneCh    chan struct{}
	subs      map[*jobSub]struct{}
}

// jobSub is one SSE subscriber's event feed. The channel is buffered and
// sends are non-blocking: a slow consumer drops intermediate progress
// events (each event is a snapshot, and the terminal state always arrives
// via doneCh), it never stalls execution.
type jobSub struct {
	ch chan ProgressEvent
}

// tenantQueue is one pool's FIFO plus its DRR deficit.
type tenantQueue struct {
	jobs    []*job
	deficit int
}

// tenantCounters are one pool's lifetime counters (the per-tenant series
// /metrics exposes).
type tenantCounters struct {
	submitted   uint64
	admitted    uint64
	rejected    uint64
	done        uint64
	failed      uint64
	interrupted uint64
}

// jobManager owns the job table, the per-tenant queues, and the DRR
// scheduler. One mutex guards everything — job turnover is request-rate,
// not simulation-rate, so contention is negligible next to execution.
type jobManager struct {
	s *Server

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job
	queues   map[string]*tenantQueue
	rr       []string
	running  map[string]int
	runningN int
	queuedN  int
	seq      uint64
	finSeq   uint64
	tenants  map[string]*tenantCounters
	draining bool

	drainCh chan struct{}
	runWG   sync.WaitGroup
}

func newJobManager(s *Server) *jobManager {
	return &jobManager{
		s:       s,
		jobs:    make(map[string]*job),
		queues:  make(map[string]*tenantQueue),
		running: make(map[string]int),
		tenants: make(map[string]*tenantCounters),
		drainCh: make(chan struct{}),
	}
}

// poolOf resolves a tenant to its scheduling pool: tenants with an explicit
// quota get their own pool, everyone else shares "default".
func (m *jobManager) poolOf(tenant string) string {
	if tenant == "" {
		return "default"
	}
	if _, ok := m.s.cfg.TenantQuotas[tenant]; ok {
		return tenant
	}
	return "default"
}

// quotaOf returns a pool's quota: its configured value, or MaxJobs for the
// shared default pool.
func (m *jobManager) quotaOf(pool string) int {
	if q, ok := m.s.cfg.TenantQuotas[pool]; ok {
		return q
	}
	return m.s.cfg.MaxJobs
}

// quantumOf is the pool's per-visit DRR credit, weighted by quota.
func (m *jobManager) quantumOf(pool string) int {
	q := m.quotaOf(pool)
	if q < 1 {
		q = 1
	}
	return drrQuantum * q
}

func (m *jobManager) counters(pool string) *tenantCounters {
	tc := m.tenants[pool]
	if tc == nil {
		tc = &tenantCounters{}
		m.tenants[pool] = tc
	}
	return tc
}

// submit validates one job request, admits it against quotas and backlog
// bounds, enqueues it, and kicks the scheduler. It returns the rendered
// HTTP response (202 + JobView, or an error envelope).
func (m *jobManager) submit(req JobRequest) response {
	kind, tenant := normalizeJobKind(req.Kind), req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if len(req.Request) == 0 {
		return errorResponse(http.StatusBadRequest, errors.New("request must be set"))
	}

	// Decode the embedded payload exactly as the synchronous endpoint
	// would; the job's cost is its point count.
	decode, ok := jobKinds[kind]
	if !ok {
		return errorResponse(http.StatusBadRequest,
			fmt.Errorf("unknown job kind %q (want simulate, sweep, or noc_sweep)", req.Kind))
	}
	b, err := decode(m.s, bytes.NewReader(req.Request))
	if err != nil {
		return errorResponse(http.StatusBadRequest, err)
	}
	cost := len(b.points)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return drainingResponse()
	}
	m.pruneLocked(time.Now())
	pool := m.poolOf(tenant)
	tc := m.counters(pool)
	tc.submitted++
	quota := m.quotaOf(pool)
	if quota <= 0 {
		tc.rejected++
		m.mu.Unlock()
		return quotaResponse(fmt.Sprintf("tenant %q has no job quota", tenant))
	}
	if q := m.queues[pool]; q != nil && len(q.jobs) >= 16*quota {
		tc.rejected++
		m.mu.Unlock()
		return quotaResponse(fmt.Sprintf("tenant %q job backlog full (%d queued)", tenant, len(q.jobs)))
	}
	if m.queuedN+m.runningN >= 64*m.s.cfg.MaxJobs {
		tc.rejected++
		m.mu.Unlock()
		return overloadResponse("job backlog saturated")
	}

	m.seq++
	j := &job{
		id:        fmt.Sprintf("j-%06d", m.seq),
		kind:      kind,
		tenant:    tenant,
		pool:      pool,
		cost:      cost,
		run:       func(ctx context.Context) response { return m.s.run(ctx, b) },
		state:     jobQueued,
		total:     cost,
		lastChunk: -1,
		created:   time.Now(),
		doneCh:    make(chan struct{}),
		subs:      make(map[*jobSub]struct{}),
	}
	tc.admitted++
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	q := m.queues[pool]
	if q == nil {
		q = &tenantQueue{}
		m.queues[pool] = q
	}
	if len(q.jobs) == 0 && !m.inRR(pool) {
		m.rr = append(m.rr, pool)
	}
	q.jobs = append(q.jobs, j)
	m.queuedN++
	m.scheduleLocked()
	view := m.viewLocked(j, false)
	m.mu.Unlock()

	body, _ := json.Marshal(view)
	return response{status: http.StatusAccepted, body: body}
}

// jobKinds maps a job kind to its endpoint's decoder.
var jobKinds = map[string]decoder{
	"simulate":  decodeSimulate,
	"sweep":     decodeSweep,
	"noc_sweep": decodeNocSweep,
}

// normalizeJobKind accepts the hyphenated "noc-sweep" spelling.
func normalizeJobKind(kind string) string {
	if kind == "noc-sweep" {
		return "noc_sweep"
	}
	return kind
}

func (m *jobManager) inRR(pool string) bool {
	for _, p := range m.rr {
		if p == pool {
			return true
		}
	}
	return false
}

// scheduleLocked runs the DRR dispatch loop: while running slots are free,
// cycle the pool rotation, credit each eligible pool its quantum, and
// dispatch a pool's head job once its deficit covers the job's cost (one
// dispatch per visit, rotating the pool to the back). Pools at their quota
// are skipped without credit; the loop ends when no eligible pool remains.
func (m *jobManager) scheduleLocked() {
	for m.runningN < m.s.cfg.MaxJobs {
		// Drop drained pools from the rotation.
		keep := m.rr[:0]
		for _, p := range m.rr {
			if len(m.queues[p].jobs) > 0 {
				keep = append(keep, p)
			} else {
				m.queues[p].deficit = 0
			}
		}
		m.rr = keep
		if len(m.rr) == 0 {
			return
		}
		dispatched, eligible := false, false
		for i, n := 0, len(m.rr); i < n && !dispatched; i++ {
			p := m.rr[0]
			m.rr = append(m.rr[1:], p)
			q := m.queues[p]
			if len(q.jobs) == 0 || m.running[p] >= m.quotaOf(p) {
				continue
			}
			eligible = true
			q.deficit += m.quantumOf(p)
			if q.deficit >= q.jobs[0].cost {
				j := q.jobs[0]
				q.jobs = q.jobs[1:]
				q.deficit -= j.cost
				if len(q.jobs) == 0 {
					q.deficit = 0
				}
				m.startLocked(j)
				dispatched = true
			}
		}
		if !dispatched && !eligible {
			return
		}
		// Eligible pools exist but no deficit covered its head job yet:
		// loop again — deficits grow each visit, so a dispatch (or slot
		// exhaustion) is always reached.
	}
}

// startLocked moves a queued job to running and launches its executor.
func (m *jobManager) startLocked(j *job) {
	m.queuedN--
	m.running[j.pool]++
	m.runningN++
	j.state = jobRunning
	j.started = time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	m.runWG.Add(1)
	go m.execute(j, ctx)
}

// execute runs one job on a server-owned context — a subscriber
// disconnecting (or never connecting) cannot cancel it. Jobs have no
// per-request timeout: long sweeps are the entire point, and shutdown
// bounds them via interruptRunning.
func (m *jobManager) execute(j *job, ctx context.Context) {
	defer m.runWG.Done()
	ctx = withGateWait(WithProgress(ctx, func(ev ProgressEvent) { m.progress(j, ev) }))
	resp := j.run(ctx)
	j.cancel()
	m.finish(j, resp)
}

// progress folds one executor progress event into the job and fans it out
// to SSE subscribers.
func (m *jobManager) progress(j *job, ev ProgressEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state != jobRunning {
		return
	}
	if ev.Done > j.done {
		j.done = ev.Done
	}
	if ev.Chunk >= 0 {
		j.lastChunk = ev.Chunk
	}
	j.partial = append(j.partial, ev.Points...)
	for sub := range j.subs {
		select {
		case sub.ch <- ev:
		default: // slow consumer: drop; later events carry the count forward
		}
	}
}

// finish records a completed execution. A job interrupted while running
// keeps its interrupted state — the late result is discarded, because the
// persisted interruption record has already promised resubmission
// semantics.
func (m *jobManager) finish(j *job, resp response) {
	now := time.Now()
	m.mu.Lock()
	m.running[j.pool]--
	m.runningN--
	if j.state == jobRunning {
		j.result = resp
		j.finished = now
		m.finSeq++
		j.finSeq = m.finSeq
		tc := m.counters(j.pool)
		if resp.status == http.StatusOK {
			j.state = jobDone
			j.done = j.total
			tc.done++
		} else {
			j.state = jobFailed
			j.errDetail = decodeErrorDetail(resp.body)
			tc.failed++
		}
		close(j.doneCh)
	}
	m.scheduleLocked()
	m.pruneLocked(now)
	m.mu.Unlock()
}

// decodeErrorDetail recovers the envelope detail from a rendered error
// body (nil when the body is not an envelope).
func decodeErrorDetail(body []byte) *ErrorDetail {
	var wire errorEnvelope
	if err := json.Unmarshal(body, &wire); err != nil || wire.Error.Code == "" {
		return nil
	}
	d := wire.Error
	return &d
}

// pruneLocked drops finished jobs past their TTL.
func (m *jobManager) pruneLocked(now time.Time) {
	keep := m.order[:0]
	for _, j := range m.order {
		expired := false
		switch j.state {
		case jobDone, jobFailed, jobInterrupted:
			expired = now.Sub(j.finished) > m.s.cfg.JobTTL
		}
		if expired {
			delete(m.jobs, j.id)
		} else {
			keep = append(keep, j)
		}
	}
	m.order = keep
}

// viewLocked renders a job's wire status.
func (m *jobManager) viewLocked(j *job, partial bool) JobView {
	v := JobView{
		ID:          j.id,
		Kind:        j.kind,
		Tenant:      j.tenant,
		Pool:        j.pool,
		Status:      j.state,
		PointsDone:  j.done,
		PointsTotal: j.total,
		CreatedMs:   j.created.UnixMilli(),
		Chunk:       j.lastChunk,
		Error:       j.errDetail,
	}
	if !j.started.IsZero() {
		v.StartedMs = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		v.FinishedMs = j.finished.UnixMilli()
	}
	if j.state == jobDone || j.state == jobFailed {
		v.ResultStatus = j.result.status
	}
	if partial && len(j.partial) > 0 {
		v.Partial = append([]SweepPoint(nil), j.partial...)
	}
	return v
}

// view returns the wire status of one job by ID.
func (m *jobManager) view(id string, partial bool) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return m.viewLocked(j, partial), true
}

// drain refuses new submissions and interrupts every queued job (they
// never started, so there is nothing to wait for). Running jobs keep
// going; Shutdown decides how long.
func (m *jobManager) drain() {
	var interrupted []*job
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drainCh)
	}
	for _, p := range m.rr {
		q := m.queues[p]
		for _, j := range q.jobs {
			m.interruptLocked(j)
			interrupted = append(interrupted, j)
		}
		q.jobs = nil
		q.deficit = 0
	}
	m.rr = nil
	m.queuedN = 0
	m.mu.Unlock()
	for _, j := range interrupted {
		m.persistInterrupted(j)
	}
}

// interruptRunning cancels every running job and marks it interrupted —
// the drain deadline passed. The persisted record makes the interruption
// resumable in the practical sense: every point completed before the
// cancellation is already in the result store, so resubmitting the same
// payload restarts warm instead of recomputing.
func (m *jobManager) interruptRunning() {
	var interrupted []*job
	m.mu.Lock()
	for _, j := range m.order {
		if j.state == jobRunning {
			if j.cancel != nil {
				j.cancel()
			}
			m.interruptLocked(j)
			interrupted = append(interrupted, j)
		}
	}
	m.mu.Unlock()
	for _, j := range interrupted {
		m.persistInterrupted(j)
	}
}

// interruptLocked transitions one queued/running job to interrupted.
func (m *jobManager) interruptLocked(j *job) {
	j.state = jobInterrupted
	j.finished = time.Now()
	j.errDetail = &ErrorDetail{Code: codeDraining,
		Message: fmt.Sprintf("interrupted by shutdown after %d/%d points; resubmit to resume from the result store", j.done, j.total)}
	m.counters(j.pool).interrupted++
	close(j.doneCh)
}

// persistInterrupted writes the interruption record into the result store
// (best effort; skipped without a store). The record is the job's final
// JobView under a job-namespaced key, so an operator can audit what a
// restart interrupted.
func (m *jobManager) persistInterrupted(j *job) {
	if m.s.cfg.Store == nil {
		return
	}
	m.mu.Lock()
	view := m.viewLocked(j, true)
	m.mu.Unlock()
	payload, err := json.Marshal(view)
	if err != nil {
		return
	}
	m.s.cfg.Store.Put(store.NSResults, jobRecordKey(j.id), payload)
}

// jobRecordKey derives the store key of a job's interruption record.
func jobRecordKey(id string) string {
	h := sha256.Sum256([]byte("job\x00" + id))
	return fmt.Sprintf("%x", h)
}

// waitRunning blocks until every started job's executor has returned.
func (m *jobManager) waitRunning() { m.runWG.Wait() }

// subscribe registers an SSE feed on a job and returns it with the
// subscription-time snapshot (taken under the same lock, so no event
// between snapshot and registration can be missed).
func (m *jobManager) subscribe(id string) (*job, *jobSub, JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, JobView{}, false
	}
	sub := &jobSub{ch: make(chan ProgressEvent, 16)}
	j.subs[sub] = struct{}{}
	return j, sub, m.viewLocked(j, true), true
}

func (m *jobManager) unsubscribe(j *job, sub *jobSub) {
	m.mu.Lock()
	delete(j.subs, sub)
	m.mu.Unlock()
}

// result returns a finished job's stored response for verbatim replay.
func (m *jobManager) result(id string) (response, string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return response{}, "", false
	}
	return j.result, j.state, true
}

// tenantSnapshot is one pool's counters as /metrics renders them.
type tenantSnapshot struct {
	Quota       int
	Submitted   uint64
	Admitted    uint64
	Rejected    uint64
	Done        uint64
	Failed      uint64
	Interrupted uint64
	Queued      int
	Running     int
}

// jobsSnapshot is the job manager's queue depths and per-pool counters.
type jobsSnapshot struct {
	Queued  int
	Running int
	Tracked int
	Tenants map[string]tenantSnapshot
}

// snapshot renders the job manager's counters.
func (m *jobManager) snapshot() jobsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := jobsSnapshot{
		Queued:  m.queuedN,
		Running: m.runningN,
		Tracked: len(m.jobs),
		Tenants: make(map[string]tenantSnapshot, len(m.tenants)),
	}
	for pool, tc := range m.tenants {
		queued := 0
		if q := m.queues[pool]; q != nil {
			queued = len(q.jobs)
		}
		out.Tenants[pool] = tenantSnapshot{
			Quota:       m.quotaOf(pool),
			Submitted:   tc.submitted,
			Admitted:    tc.admitted,
			Rejected:    tc.rejected,
			Done:        tc.done,
			Failed:      tc.failed,
			Interrupted: tc.interrupted,
			Queued:      queued,
			Running:     m.running[pool],
		}
	}
	return out
}

// handleJobSubmit is POST /v1/jobs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.met.jobSubmit.Add(1)
	var req JobRequest
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req); err != nil {
		s.write(w, errorResponse(http.StatusBadRequest, err))
		return
	}
	resp := s.jobs.submit(req)
	if resp.status == http.StatusTooManyRequests || resp.status == http.StatusServiceUnavailable {
		s.met.rejected.Add(1)
	}
	s.write(w, resp)
}

// handleJobStatus is GET /v1/jobs/{id}: the poll endpoint, partial results
// included.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.met.jobStatus.Add(1)
	id := r.PathValue("id")
	view, ok := s.jobs.view(id, true)
	if !ok {
		s.write(w, notFoundResponse("no such job: "+id))
		return
	}
	s.write(w, okResponse(view))
}

// handleJobResult is GET /v1/jobs/{id}/result: replay the finished
// execution's bytes verbatim — status and body exactly as the synchronous
// endpoint would have answered. Fetching is idempotent; an unfinished job
// answers 409, an interrupted one 410.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.met.jobResult.Add(1)
	id := r.PathValue("id")
	resp, state, ok := s.jobs.result(id)
	if !ok {
		s.write(w, notFoundResponse("no such job: "+id))
		return
	}
	switch state {
	case jobDone, jobFailed:
		s.write(w, resp)
	case jobInterrupted:
		s.write(w, errorResponse(http.StatusGone,
			fmt.Errorf("job %s was interrupted by shutdown; resubmit to resume", id)))
	default:
		s.write(w, errorResponse(http.StatusConflict,
			fmt.Errorf("job %s is %s; poll /v1/jobs/%s until done", id, state, id)))
	}
}
