package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimnet/internal/core"
	"pimnet/internal/metrics"
	"pimnet/internal/serve"
	"pimnet/internal/trace"
)

// testGrid is the sweep the determinism tests fan out: 2 populations x 3
// payloads = 6 points, so chunk size 2 yields 3 chunks.
const testGrid = `{"pattern": "allreduce", "dpus": [64, 256], "bytes_per_node": [4096, 16384, 32768]}`

// testFleet is a coordinator plus its worker fleet, all sharing one
// in-process plan cache so tests stay fast (in production each process has
// its own; cache state never affects result bytes — DESIGN.md §8).
type testFleet struct {
	coord   *Coordinator
	workers []*httptest.Server
	urls    []string
}

// delayedHandler wraps a worker so tests can make it straggle on demand.
type delayedHandler struct {
	inner http.Handler
	delay atomic.Int64 // nanoseconds added to every /v1/chunk
}

func (d *delayedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n := d.delay.Load(); n > 0 && strings.HasSuffix(r.URL.Path, "/chunk") {
		time.Sleep(time.Duration(n))
	}
	d.inner.ServeHTTP(w, r)
}

// startFleet boots n workers and a coordinator over them. mutate adjusts
// the coordinator config before construction (nil for defaults). Hedging
// is disabled unless the test re-enables it — determinism must never
// depend on it, and it keeps the fast tests quiet.
func startFleet(t *testing.T, n int, mutate func(*Config)) *testFleet {
	t.Helper()
	cache := core.NewPlanCache()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		ws := httptest.NewServer(&delayedHandler{inner: serve.New(serve.Config{Cache: cache})})
		t.Cleanup(ws.Close)
		f.workers = append(f.workers, ws)
		f.urls = append(f.urls, ws.URL)
	}
	local := serve.New(serve.Config{Cache: cache})
	cfg := Config{
		Workers:     f.urls,
		Local:       local.RunChunk,
		ChunkSize:   2,
		HedgeAfter:  -1,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	return f
}

// probeOnce sweeps every worker's health once, synchronously, so tests
// advance the eject/readmit state machine deterministically.
func (c *Coordinator) probeOnce(ctx context.Context) {
	c.reg.probeAll(ctx, c.probeClient)
}

// delay returns worker i's straggle knob.
func (f *testFleet) delay(i int) *delayedHandler {
	return f.workers[i].Config.Handler.(*delayedHandler)
}

// host returns worker i's host:port (the chaos transport's kill key).
func (f *testFleet) host(i int) string {
	u, _ := url.Parse(f.urls[i])
	return u.Host
}

// singleNodePoints runs the grid on a fresh single-node server and returns
// the marshaled points — the reference bytes every distributed run must
// reproduce.
func singleNodePoints(t *testing.T, grid string) []byte {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}))
	defer ts.Close()
	return postSweepPoints(t, ts.URL, grid)
}

// postSweepPoints POSTs a sweep and extracts the raw "points" JSON.
func postSweepPoints(t *testing.T, base, grid string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var wire struct {
		Points json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	return wire.Points
}

// expandedSweep is what a serving tier hands its SweepRunner for one
// /v1/sweep payload.
type expandedSweep struct {
	req  serve.SweepRequest
	grid []serve.GridPoint
	keys []string
}

// RunSweep records its arguments; it makes expandedSweep a SweepRunner.
func (x *expandedSweep) RunSweep(_ context.Context, req serve.SweepRequest, grid []serve.GridPoint, keys []string) (*serve.SweepResponse, error) {
	x.req, x.grid, x.keys = req, grid, keys
	return &serve.SweepResponse{}, nil
}

// expand decodes a sweep payload through a serve.Server's /v1/sweep
// handler and returns the normalized request, grid and plan keys the
// server delegates, so tests drive RunSweep with exactly what the serving
// tier would pass.
func expand(t *testing.T, payload string) expandedSweep {
	t.Helper()
	var x expandedSweep
	rec := httptest.NewRecorder()
	serve.New(serve.Config{Sweeper: &x}).ServeHTTP(rec,
		httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(payload)))
	if rec.Code != http.StatusOK {
		t.Fatalf("expanding %s: status %d: %s", payload, rec.Code, rec.Body)
	}
	return x
}

// runSweep runs a sweep payload through the coordinator.
func runSweep(ctx context.Context, t *testing.T, c *Coordinator, payload string) (*serve.SweepResponse, error) {
	t.Helper()
	x := expand(t, payload)
	return c.RunSweep(ctx, x.req, x.grid, x.keys)
}

// runSweepPoints runs the grid through the coordinator and marshals the
// assembled points the same way the serving tier would.
func runSweepPoints(t *testing.T, c *Coordinator, grid string) []byte {
	t.Helper()
	resp, err := runSweep(context.Background(), t, c, grid)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	raw, err := json.Marshal(resp.Points)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestClusterSweepMatchesSingleNode is the healthy-path determinism
// anchor: a 3-worker distributed sweep must produce bytes identical to the
// single-node sweep, end to end through the serving tier (delegated
// /v1/sweep), with the pimnetd_cluster_* families present in /metrics.
func TestClusterSweepMatchesSingleNode(t *testing.T) {
	want := singleNodePoints(t, testGrid)
	f := startFleet(t, 3, nil)

	srv := serve.New(serve.Config{Sweeper: f.coord})
	front := httptest.NewServer(srv)
	defer front.Close()

	got := postSweepPoints(t, front.URL, testGrid)
	if string(got) != string(want) {
		t.Fatalf("distributed sweep diverged from single node:\n got %s\nwant %s", got, want)
	}
	if n := f.coord.met.chunks.Load(); n != 3 {
		t.Fatalf("chunks dispatched = %d, want 3", n)
	}

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := metrics.ValidateProm(string(text))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition text: %v", err)
	}
	healthy, workers := -1.0, 0
	for _, s := range scrape.Series {
		switch {
		case s.Name == "pimnetd_cluster_healthy_workers":
			healthy = s.Value
		case s.Name == "pimnetd_cluster_worker_state" && s.Labels["state"] == "healthy":
			workers++
		}
	}
	if workers != 3 || healthy != 3 {
		t.Fatalf("metrics cluster families: %d healthy worker series, healthy_workers %v", workers, healthy)
	}
}

// TestSweep422MatchesCoordinator: a grid with a deterministically failing
// point renders byte-identical 422 bodies, point_index included, on a single
// node and through a two-worker coordinator.
func TestSweep422MatchesCoordinator(t *testing.T) {
	const failing = `{"backend":"ndpbridge","pattern":"allreduce","dpus":[8,64],"bytes_per_node":[4096]}`
	post := func(h http.Handler) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(failing)))
		return rec.Code, rec.Body.String()
	}
	localCode, local := post(serve.New(serve.Config{}))
	f := startFleet(t, 2, nil)
	distCode, dist := post(serve.New(serve.Config{Sweeper: f.coord}))
	if localCode != http.StatusUnprocessableEntity || distCode != http.StatusUnprocessableEntity {
		t.Fatalf("status: local %d, coordinator %d, want 422 from both", localCode, distCode)
	}
	if local != dist {
		t.Fatalf("422 bodies differ:\n local       %s\n coordinator %s", local, dist)
	}
}

// TestChaosSchedulesPreserveBytes is the key robustness invariant: under
// seeded chaos — connection failures, injected 5xx, latency spikes,
// truncated bodies — every schedule that completes must yield bytes
// identical to the single-node sweep. Retries, hedges, ejections, and
// local fallbacks may all fire; none may change a byte.
func TestChaosSchedulesPreserveBytes(t *testing.T) {
	want := singleNodePoints(t, testGrid)
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := startFleet(t, 3, func(cfg *Config) {
				cfg.Transport = WithChaos(nil, Chaos{
					ConnFailP: 0.15,
					Err5xxP:   0.10,
					TruncateP: 0.10,
					SpikeP:    0.10,
					Spike:     5 * time.Millisecond,
				}, seed)
				cfg.MaxAttempts = 4
				cfg.HedgeAfter = 25 * time.Millisecond
				cfg.Seed = seed
			})
			got := runSweepPoints(t, f.coord, testGrid)
			if string(got) != string(want) {
				t.Fatalf("chaos seed %d diverged from single node:\n got %s\nwant %s", seed, got, want)
			}
		})
	}
}

// TestWorkerKilledMidSweep is the acceptance scenario: one of three
// workers is killed mid-chunk (it executes the chunk; the coordinator
// never hears back, and every later request to it fails). The sweep must
// complete with bytes identical to single node, and the dead worker must
// end up ejected.
func TestWorkerKilledMidSweep(t *testing.T) {
	want := singleNodePoints(t, testGrid)
	// The kill map is filled in after the fleet boots (worker addresses are
	// ephemeral); the map is read under the transport's mutex per request,
	// and nothing is dispatched before RunSweep below.
	kill := map[string]int{}
	f2 := startFleet(t, 3, func(cfg *Config) {
		cfg.Transport = WithChaos(nil, Chaos{Kill: kill}, 1)
		cfg.EjectAfter = 1
	})
	killed := f2.host(0)
	kill[killed] = 1 // first chunk request executes but the response is lost

	got := runSweepPoints(t, f2.coord, testGrid)
	if string(got) != string(want) {
		t.Fatalf("kill schedule diverged from single node:\n got %s\nwant %s", got, want)
	}
	// The victim only ends up ejected if placement actually routed it a
	// chunk; with 3 chunks over 3 workers that is overwhelmingly likely,
	// but probe it explicitly to make the final state deterministic.
	f2.coord.probeOnce(context.Background())
	snap := f2.coord.MetricsSnapshot()
	for _, w := range snap.Workers {
		if strings.Contains(w.Addr, killed) && w.State != "ejected" {
			t.Fatalf("killed worker %s not ejected: %+v", killed, snap.Workers)
		}
	}
	if snap.Ejections == 0 {
		t.Fatalf("no ejection recorded: %+v", snap)
	}
}

// TestAllWorkersDeadRunsLocally: a fleet that is entirely unreachable must
// degrade to local execution and still produce the single-node bytes.
func TestAllWorkersDeadRunsLocally(t *testing.T) {
	want := singleNodePoints(t, testGrid)
	f := startFleet(t, 2, func(cfg *Config) {
		cfg.MaxAttempts = 2
	})
	for _, ws := range f.workers {
		ws.Close() // connection refused from the first dispatch on
	}
	got := runSweepPoints(t, f.coord, testGrid)
	if string(got) != string(want) {
		t.Fatalf("dead-fleet sweep diverged:\n got %s\nwant %s", got, want)
	}
	if n := f.coord.met.localRuns.Load(); n != 3 {
		t.Fatalf("local runs = %d, want 3 (every chunk)", n)
	}
}

// TestEmptyFleetRunsLocally: a coordinator with no workers at all is
// legal and serves everything through the local path immediately.
func TestEmptyFleetRunsLocally(t *testing.T) {
	want := singleNodePoints(t, testGrid)
	local := serve.New(serve.Config{})
	c, err := New(Config{Local: local.RunChunk, ChunkSize: 2, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := runSweepPoints(t, c, testGrid)
	if string(got) != string(want) {
		t.Fatalf("empty-fleet sweep diverged:\n got %s\nwant %s", got, want)
	}
}

// TestHedgedDispatchWinsOverStraggler: the chunk's placed worker straggles
// far past HedgeAfter; the hedge to the next worker must answer, the
// result must be correct, and the hedge counter must record it.
func TestHedgedDispatchWinsOverStraggler(t *testing.T) {
	want := singleNodePoints(t, testGrid)
	f := startFleet(t, 2, func(cfg *Config) {
		cfg.HedgeAfter = 20 * time.Millisecond
		cfg.ChunkSize = 6 // one chunk: placement is a single ring lookup
	})
	// Find the single chunk's placed worker and make it straggle.
	primary := f.coord.ring.order(expand(t, testGrid).keys[0])[0]
	f.delay(primary).delay.Store(int64(2 * time.Second))

	start := time.Now()
	got := runSweepPoints(t, f.coord, testGrid)
	if string(got) != string(want) {
		t.Fatalf("hedged sweep diverged:\n got %s\nwant %s", got, want)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("sweep took %v: the hedge did not win over the straggler", elapsed)
	}
	if n := f.coord.met.hedges.Load(); n == 0 {
		t.Fatal("no hedged dispatch recorded")
	}
}

// TestPointErrorPropagatesWithGlobalIndex: a worker's structured 422 chunk
// error must surface as the global lowest-index point error, exactly like
// the single-node sweep engine's error contract, without retries or local
// fallback (the failure is deterministic; re-running cannot help).
func TestPointErrorPropagatesWithGlobalIndex(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/healthz") {
			w.WriteHeader(http.StatusOK)
			return
		}
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error":{"code":"unprocessable","message":"boom","point_index":1}}`)
	}))
	defer fake.Close()

	c, err := New(Config{
		Workers:    []string{fake.URL},
		HedgeAfter: -1,
		ChunkSize:  2,
		Local: func(ctx context.Context, req serve.ChunkRequest) ([]serve.SweepPoint, error) {
			t.Error("local fallback must not run for deterministic point errors")
			return nil, errors.New("unreachable")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runSweep(context.Background(), t, c, testGrid)
	if err == nil {
		t.Fatal("sweep succeeded against an always-failing worker")
	}
	var pe *serve.PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a PointError", err)
	}
	// Chunk 0 covers points 0-1; its chunk-local failing point 1 is global
	// point 1 — the lowest failing index across all chunks.
	if pe.Index != 1 {
		t.Fatalf("failing index = %d, want 1", pe.Index)
	}
	if got, want := err.Error(), "sweep: point 1: boom"; got != want {
		t.Fatalf("error = %q, want %q", got, want)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("worker saw %d chunk calls, want 3 (no retries of deterministic failures)", n)
	}
}

// TestRegistryEjectReadmitStateMachine drives the two-threshold state
// machine directly: EjectAfter consecutive failures eject, interleaved
// successes reset the count, and ReadmitAfter consecutive successes earn
// readmission.
func TestRegistryEjectReadmitStateMachine(t *testing.T) {
	var met Metrics
	r := newRegistry([]string{"http://a"}, 2, 2, &met)
	w := r.workers[0]

	r.markFailure(w)
	if !w.healthy() {
		t.Fatal("one failure must not eject")
	}
	r.markSuccess(w) // resets the streak
	r.markFailure(w)
	if !w.healthy() {
		t.Fatal("non-consecutive failures must not eject")
	}
	r.markFailure(w)
	if w.healthy() {
		t.Fatal("two consecutive failures must eject")
	}
	if met.ejections.Load() != 1 {
		t.Fatalf("ejections = %d, want 1", met.ejections.Load())
	}
	r.markSuccess(w)
	if w.healthy() {
		t.Fatal("one success must not readmit")
	}
	r.markFailure(w) // resets the readmission streak
	r.markSuccess(w)
	r.markSuccess(w)
	if !w.healthy() {
		t.Fatal("two consecutive successes must readmit")
	}
	if met.readmissions.Load() != 1 {
		t.Fatalf("readmissions = %d, want 1", met.readmissions.Load())
	}
}

// TestProbeDrivesStateMachine: real /healthz probes feed the machine — a
// 503 (draining) worker ejects, a recovered one readmits.
func TestProbeDrivesStateMachine(t *testing.T) {
	var status atomic.Int64
	status.Store(http.StatusOK)
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(status.Load()))
	}))
	defer ws.Close()

	local := serve.New(serve.Config{})
	c, err := New(Config{
		Workers: []string{ws.URL}, Local: local.RunChunk,
		EjectAfter: 2, ReadmitAfter: 2, ProbeTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c.probeOnce(ctx)
	if !c.reg.workers[0].healthy() {
		t.Fatal("healthy probe must keep the worker in")
	}
	status.Store(http.StatusServiceUnavailable)
	c.probeOnce(ctx)
	c.probeOnce(ctx)
	if c.reg.workers[0].healthy() {
		t.Fatal("two failed probes must eject")
	}
	status.Store(http.StatusOK)
	c.probeOnce(ctx)
	c.probeOnce(ctx)
	if !c.reg.workers[0].healthy() {
		t.Fatal("two healthy probes must readmit")
	}
	snap := c.MetricsSnapshot()
	if snap.Probes != 5 || snap.ProbeFailures != 2 {
		t.Fatalf("probes %d failures %d, want 5/2", snap.Probes, snap.ProbeFailures)
	}
}

// TestRingPlacementDeterministicAndComplete: order() is stable for a key,
// covers every worker exactly once, and spreads preferred placement across
// the fleet.
func TestRingPlacementDeterministicAndComplete(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3"}
	r := buildRing(addrs)
	preferred := make(map[int]int)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("digest-%d", i)
		o1, o2 := r.order(key), r.order(key)
		if len(o1) != 3 {
			t.Fatalf("order(%q) = %v, want all 3 workers", key, o1)
		}
		seen := map[int]bool{}
		for j, w := range o1 {
			if w != o2[j] {
				t.Fatalf("order(%q) unstable: %v vs %v", key, o1, o2)
			}
			if seen[w] {
				t.Fatalf("order(%q) repeats worker %d: %v", key, w, o1)
			}
			seen[w] = true
		}
		preferred[o1[0]]++
	}
	for w := 0; w < 3; w++ {
		if preferred[w] == 0 {
			t.Fatalf("worker %d never preferred over 100 keys: %v", w, preferred)
		}
	}
}

// TestRingFailoverIsMinimal: ejecting one worker must only move the keys
// that preferred it — every other key keeps its placement (the property
// that preserves plan-cache locality through worker churn).
func TestRingFailoverIsMinimal(t *testing.T) {
	local := serve.New(serve.Config{})
	c, err := New(Config{
		Workers: []string{"http://a:1", "http://b:2", "http://c:3"},
		Local:   local.RunChunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	pickFirst := func(key string) *workerInfo {
		p, _ := c.pick(c.ring.order(key), 0)
		return p
	}
	before := make(map[string]*workerInfo)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("digest-%d", i)
		before[key] = pickFirst(key)
	}
	ejected := c.reg.workers[1]
	ejected.mu.Lock()
	ejected.state = StateEjected
	ejected.mu.Unlock()
	for key, prev := range before {
		now := pickFirst(key)
		if prev != ejected && now != prev {
			t.Fatalf("key %s moved from %s to %s though its worker is still healthy", key, prev.addr, now.addr)
		}
		if prev == ejected && now == ejected {
			t.Fatalf("key %s still placed on the ejected worker", key)
		}
	}
}

// TestBackoffCappedAndJittered: waits are exponential with attempt,
// bounded by [base/2, cap), and not constant across draws.
func TestBackoffCappedAndJittered(t *testing.T) {
	local := serve.New(serve.Config{})
	c, err := New(Config{Local: local.RunChunk,
		BackoffBase: 10 * time.Millisecond, BackoffCap: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		for attempt := 1; attempt <= 8; attempt++ {
			d := c.backoff(attempt)
			if d < 5*time.Millisecond || d > 80*time.Millisecond {
				t.Fatalf("backoff(%d) = %v outside [base/2, cap]", attempt, d)
			}
			seen[d] = true
		}
	}
	if len(seen) < 10 {
		t.Fatalf("backoff produced only %d distinct waits over 160 draws: jitter missing", len(seen))
	}
}

// TestChunkTraceEventsEmitted: a distributed sweep under a recorder must
// emit chunk-dispatch spans (and, with a dead worker, retries and a local
// run), all on the coordinator's wall-clock timeline.
func TestChunkTraceEventsEmitted(t *testing.T) {
	rec := trace.NewRecorder(256)
	f := startFleet(t, 2, func(cfg *Config) {
		cfg.Tracer = rec
		cfg.MaxAttempts = 2
	})
	f.workers[1].Close() // half the fleet is down: dispatch failures + retries
	runSweepPoints(t, f.coord, testGrid)

	counts := map[trace.Kind]int{}
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
		if ev.End < ev.Start {
			t.Fatalf("event %v has End < Start", ev)
		}
	}
	if counts[trace.KindChunkDispatch] == 0 {
		t.Fatalf("no chunk-dispatch events: %v", counts)
	}
}

// TestConfigValidation: New must reject a missing local runner, empty
// worker URLs, and duplicates.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: []string{"http://a:1"}}); err == nil {
		t.Fatal("New accepted a nil Local runner")
	}
	local := serve.New(serve.Config{})
	if _, err := New(Config{Workers: []string{""}, Local: local.RunChunk}); err == nil {
		t.Fatal("New accepted an empty worker URL")
	}
	if _, err := New(Config{Workers: []string{"http://a:1", "http://a:1"}, Local: local.RunChunk}); err == nil {
		t.Fatal("New accepted duplicate worker URLs")
	}
}

// TestAssembleVerifiesCoverage: the reassembly layer's paranoia — gaps,
// out-of-range chunks, and disagreeing duplicates are loud errors;
// agreeing duplicates (hedged responses) are discarded.
func TestAssembleVerifiesCoverage(t *testing.T) {
	pt := func(i int) serve.SweepPoint {
		return serve.SweepPoint{DPUs: i, BytesPerNode: int64(i), TimePs: 100, Time: "t", PlanKey: "k"}
	}
	full := []ChunkResult{
		{Start: 0, Points: []serve.SweepPoint{pt(0), pt(1)}},
		{Start: 2, Points: []serve.SweepPoint{pt(2)}},
	}
	out, err := Assemble(3, full)
	if err != nil || len(out) != 3 || out[2] != pt(2) {
		t.Fatalf("assemble failed: %v, %v", out, err)
	}
	// Agreeing duplicate: fine.
	if _, err := Assemble(3, append(full, ChunkResult{Start: 1, Points: []serve.SweepPoint{pt(1), pt(2)}})); err != nil {
		t.Fatalf("agreeing duplicates must assemble: %v", err)
	}
	// Disagreeing duplicate: determinism violation.
	bad := pt(1)
	bad.TimePs = 999
	if _, err := Assemble(3, append(full, ChunkResult{Start: 1, Points: []serve.SweepPoint{bad}})); err == nil {
		t.Fatal("disagreeing duplicate must fail")
	}
	// Gap.
	if _, err := Assemble(3, full[:1]); err == nil {
		t.Fatal("missing point must fail")
	}
	// Out of range.
	if _, err := Assemble(2, full); err == nil {
		t.Fatal("chunk outside the sweep must fail")
	}
	if _, err := Assemble(1, []ChunkResult{{Start: -1, Points: []serve.SweepPoint{pt(0), pt(1)}}}); err == nil {
		t.Fatal("negative start must fail")
	}
}

// TestSweepCancellation: a cancelled context aborts the sweep with the
// context's error rather than hanging or fabricating results.
func TestSweepCancellation(t *testing.T) {
	f := startFleet(t, 2, nil)
	f.delay(0).delay.Store(int64(time.Second))
	f.delay(1).delay.Store(int64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := runSweep(ctx, t, f.coord, testGrid)
	if err == nil {
		t.Fatal("cancelled sweep returned a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
}
