package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer starts an httptest server around a Server built from cfg.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post issues one JSON POST and returns the status, headers, and body.
func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// postQuiet is post for non-test goroutines (no *testing.T methods): it
// returns -1 on transport errors.
func postQuiet(url, body string) int {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return -1
	}
	resp.Body.Close()
	return resp.StatusCode
}

// get issues one GET and returns status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentIdenticalRequestsCoalesce is the acceptance test for the
// coalescing layer: 32 concurrent identical simulate requests against one
// shared plan cache must be observably coalesced onto one execution
// (coalesce counter > 0) and all receive byte-identical 200 responses. The
// leader is held inside its admission slot until every follower has joined
// the flight, so the coalescing is deterministic, not timing-dependent.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	const clients = 32
	s := New(Config{})
	release := make(chan struct{})
	s.testHookExecute = func() { <-release }
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"pattern": "allreduce", "bytes_per_node": 32768, "dpus": 256}`
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// All 31 non-leaders must join the leader's flight before it executes.
	waitUntil(t, "followers to coalesce", func() bool { return s.met.coalesced.Load() >= clients-1 })
	close(release)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := s.met.coalesced.Load(); got != clients-1 {
		t.Fatalf("coalesced = %d, want %d", got, clients-1)
	}

	// The coalesce counter is surfaced through /metrics.
	scrape := scrapeMetrics(t, ts.URL)
	if v, _ := promValue(scrape, "pimnetd_coalesced_total"); v == 0 {
		t.Fatal("metrics report zero coalesced requests")
	}
	if v, _ := promValue(scrape, "pimnetd_requests_total", "endpoint", "simulate"); v != clients {
		t.Fatalf("metrics report %v simulate requests, want %d", v, clients)
	}
}

// TestConcurrentMixedRequestsDeterministic exercises the shared cache with
// real concurrency and no execution hook: 32 goroutines across 4 distinct
// payloads; every response for a given payload must be byte-identical
// whether its plan was compiled or bound from cache, coalesced or not. The
// admission queue holds every concurrent leader (at most one per payload),
// so no request is shed on a machine with fewer cores than payloads.
func TestConcurrentMixedRequestsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: -1})
	payloads := []string{
		`{"pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`,
		`{"pattern": "alltoall", "bytes_per_node": 4096, "dpus": 64}`,
		`{"pattern": "broadcast", "bytes_per_node": 8192, "dpus": 64}`,
		`{"backend": "baseline", "pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`,
	}
	const perPayload = 8
	var wg sync.WaitGroup
	got := make([][][]byte, len(payloads))
	for p := range payloads {
		got[p] = make([][]byte, perPayload)
		for i := 0; i < perPayload; i++ {
			wg.Add(1)
			go func(p, i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(payloads[p]))
				if err != nil {
					t.Errorf("payload %d client %d: %v", p, i, err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("payload %d client %d: status %d", p, i, resp.StatusCode)
				}
				got[p][i], _ = io.ReadAll(resp.Body)
			}(p, i)
		}
	}
	wg.Wait()
	for p := range payloads {
		for i := 1; i < perPayload; i++ {
			if !bytes.Equal(got[p][i], got[p][0]) {
				t.Fatalf("payload %d: response %d differs from response 0", p, i)
			}
		}
	}
}

// TestAdmissionBackpressure: with one execution slot and a queue of one,
// a third concurrent distinct request must be shed with 503 + Retry-After
// while the first two complete once the slot frees — bounded queueing, not
// goroutine growth.
func TestAdmissionBackpressure(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueDepth: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHookExecute = func() {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Distinct payloads so coalescing cannot absorb them.
	req := func(bytesPer int) string {
		return fmt.Sprintf(`{"pattern": "allreduce", "bytes_per_node": %d, "dpus": 64}`, bytesPer)
	}
	type result struct {
		status int
		header http.Header
	}
	results := make(chan result, 3)
	fire := func(body string) {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header}
		}()
	}

	fire(req(4096))
	<-started // request 1 occupies the only slot
	fire(req(8192))
	waitUntil(t, "request 2 to queue", func() bool { return s.gate.waiting() == 1 })
	fire(req(16384)) // both slot and queue full: must be rejected now
	r3 := <-results
	if r3.status != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status %d, want 503", r3.status)
	}
	if r3.header.Get("Retry-After") == "" {
		t.Fatal("saturated request: no Retry-After header")
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("admitted request finished with %d", r.status)
		}
	}
	if s.met.rejected.Load() == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

// TestGracefulShutdown: Shutdown must let the in-flight request complete
// (200) while refusing new ones (503), and return only after the drain.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookExecute = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		inflight <- postQuiet(ts.URL+"/v1/simulate", `{"pattern": "allreduce", "dpus": 64}`)
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitUntil(t, "drain to start", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	// New work is refused while the old request is still running.
	status, _, body := post(t, ts.URL+"/v1/simulate", `{"pattern": "allreduce", "dpus": 64}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, body %s", status, body)
	}
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", status)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight request finished", err)
	default:
	}

	close(release)
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request finished with %d", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDeadline: a drain that cannot finish within ctx returns ctx's
// error instead of hanging.
func TestShutdownDeadline(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookExecute = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postQuiet(ts.URL+"/v1/simulate", `{"pattern": "allreduce", "dpus": 64}`)
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	close(release)
	<-done
}

// TestQueueDeadline: a request whose deadline expires while it waits in the
// admission queue gets 504, and its queue position is returned.
func TestQueueDeadline(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueDepth: 4, Timeout: 50 * time.Millisecond})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookExecute = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	go postQuiet(ts.URL+"/v1/simulate", `{"pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`)
	<-started
	status, _, _ := post(t, ts.URL+"/v1/simulate", `{"pattern": "allreduce", "bytes_per_node": 8192, "dpus": 64}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d, want 504", status)
	}
	waitUntil(t, "queue to empty", func() bool { return s.gate.waiting() == 0 })
	close(release)
}

// TestDecodeRejections: malformed payloads are structured 400s.
func TestDecodeRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"syntax", `{"pattern": `},
		{"unknown field", `{"patern": "allreduce"}`},
		{"trailing data", `{"pattern": "allreduce"} {"pattern": "allreduce"}`},
		{"bad pattern", `{"pattern": "allscatter"}`},
		{"bad backend", `{"backend": "gpu"}`},
		{"bad op", `{"op": "xor"}`},
		{"bad dpus", `{"dpus": 100}`},
		{"negative bytes", `{"bytes_per_node": -4}`},
		{"root on unrooted", `{"pattern": "allreduce", "root": 3}`},
		{"faults on baseline", `{"backend": "baseline", "faults": "fail-chip=1"}`},
		{"bad fault spec", `{"faults": "explode=yes"}`},
		{"seed without workload", `{"pattern": "allreduce", "seed": 7}`},
		{"workload with pattern", `{"workload": "CC", "pattern": "allreduce"}`},
		{"unknown workload", `{"workload": "DOOM"}`},
		{"bad trace level", `{"trace_level": "verbose"}`},
		{"overhead on baseline", `{"backend": "baseline", "step_overhead_ps": 10}`},
		{"near-miss cxl backend", `{"backend": "cxlpimm"}`},
		{"overhead on cxlpim", `{"backend": "cxlpim", "step_overhead_ps": 10}`},
		{"faults on cxlpim", `{"backend": "cxlpim", "faults": "fail-chip=1"}`},
		{"near-miss pimfused workload", `{"workload": "pimfusedx"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := post(t, ts.URL+"/v1/simulate", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, body %s", status, body)
			}
			var e errorEnvelope
			if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" {
				t.Fatalf("not a structured error: %s", body)
			}
			if e.Error.Code != "bad_request" {
				t.Fatalf("error code %q, want bad_request (%s)", e.Error.Code, body)
			}
		})
	}

	// Wrong method and wrong path are handled by the mux.
	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulate: %d", resp.StatusCode)
	}
}

// TestOversizedRequestsRejected: requests the simulator would accept but a
// daemon cannot afford (a fatal out-of-memory error, or a node count that
// overflows to a small wrong one) answer a 400 envelope promptly, and the
// server keeps serving.
func TestOversizedRequestsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct{ name, path, body string }{
		{"2^40 dpus", "/v1/simulate", `{"pattern":"allreduce","dpus":1099511627776}`},
		{"2^40 dpus in a sweep", "/v1/sweep", `{"dpus":[64,1099511627776],"bytes_per_node":[4096]}`},
		{"3e9 noc steps", "/v1/noc/sweep", `{"ranks":2,"chips":2,"banks":2,"steps":3000000000,"patterns":["tornado"]}`},
		{"overflowing noc nodes", "/v1/noc/sweep", `{"ranks":4611686018427387905,"chips":4,"banks":1,"patterns":["tornado"]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			status, _, body := post(t, ts.URL+tc.path, tc.body)
			if d := time.Since(start); d > time.Second {
				t.Errorf("rejection took %v", d)
			}
			var e errorEnvelope
			if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error.Code != "bad_request" {
				t.Fatalf("status %d, body %s: want a bad_request envelope", status, body)
			}
		})
	}
	if status, _, body := post(t, ts.URL+"/v1/simulate", `{"pattern":"allreduce","dpus":64}`); status != http.StatusOK {
		t.Fatalf("simulate after the rejections: status %d, body %s", status, body)
	}
}

// TestServingCapsAdmitTheRepository: the caps sit just above what the
// repository sends — 2,560 DPUs and the default 4x8x80, 2-step, 32 KiB NoC
// cell — and reject the next size up.
func TestServingCapsAdmitTheRepository(t *testing.T) {
	if _, _, err := DecodeSimulateRequest(strings.NewReader(`{"dpus": 2560}`)); err != nil {
		t.Fatalf("2560 DPUs rejected: %v", err)
	}
	if _, _, err := DecodeSimulateRequest(strings.NewReader(`{"dpus": 2624}`)); err == nil {
		t.Fatal("2624 DPUs accepted past the cap")
	}
	s := New(Config{})
	for body, ok := range map[string]bool{
		`{}`:                                    true,  // 2560 x 2 x 32 = 163,840 packets
		`{"steps": 12}`:                         true,  // 983,040
		`{"steps": 13}`:                         false, // 1,064,960
		`{"ranks": 5, "chips": 8, "banks": 80}`: false,
	} {
		if _, err := decodeNocSweep(s, strings.NewReader(body)); (err == nil) != ok {
			t.Errorf("noc sweep %s: err %v, want accepted=%v", body, err, ok)
		}
	}
}

// TestNewNameDecodeMatrix: the CXL-PIM backend and PIMfused workload decode
// through every accepted spelling, and near-misses stay structured 400s
// (covered in TestDecodeRejections). The echoed request carries the
// canonical backend name.
func TestNewNameDecodeMatrix(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body string
	}{
		{"cxlpim lowercase", `{"backend": "cxlpim", "pattern": "allreduce", "dpus": 64, "bytes_per_node": 1024}`},
		{"cxlpim canonical", `{"backend": "CXL-PIM", "pattern": "allreduce", "dpus": 64, "bytes_per_node": 1024}`},
		{"cxlpim short alias", `{"backend": "CxL", "pattern": "allreduce", "dpus": 64, "bytes_per_node": 1024}`},
		{"pimfused lowercase", `{"workload": "pimfused", "dpus": 64}`},
		{"pimfused shouting", `{"workload": "PIMFUSED", "dpus": 64}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := post(t, ts.URL+"/v1/simulate", tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d, body %s", status, body)
			}
			if strings.Contains(tc.name, "cxlpim") && !strings.Contains(string(body), `"backend":"CXL-PIM"`) {
				t.Fatalf("response does not carry the canonical backend name: %s", body)
			}
		})
	}
}

// TestSimulateUnsupportedPattern: a well-formed request the backend cannot
// execute is 422, not 500.
func TestSimulateUnsupportedPattern(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL+"/v1/simulate",
		`{"backend": "ndpbridge", "pattern": "allreduce", "dpus": 64}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, body %s", status, body)
	}
}

// TestSimulateResponseShape: the happy path carries the latency, the
// breakdown, and the plan-key digest; repeating the request hits the shared
// cache and returns the same bytes.
func TestSimulateResponseShape(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const body = `{"pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`
	status, _, first := post(t, ts.URL+"/v1/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, first)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Backend != "PIMnet" || resp.TimePs <= 0 || resp.PlanKey == "" || resp.Breakdown == nil {
		t.Fatalf("incomplete response: %s", first)
	}
	if resp.Request.Op != "sum" || resp.Request.ElemSize != 4 {
		t.Fatalf("defaults not echoed: %+v", resp.Request)
	}
	before := s.cache.Stats()
	_, _, second := post(t, ts.URL+"/v1/simulate", body)
	if !bytes.Equal(first, second) {
		t.Fatal("repeat request returned different bytes")
	}
	if after := s.cache.Stats(); after.Hits <= before.Hits {
		t.Fatalf("repeat request did not hit the shared cache: %+v -> %+v", before, after)
	}
}

// TestSimulateWithFaults: a faulted run reports the recovery ladder's
// counters and never pollutes the shared pristine-only cache.
func TestSimulateWithFaults(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL+"/v1/simulate",
		`{"pattern": "allreduce", "dpus": 64, "faults": "fail-chip=1", "fault_seed": 7}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Faults == nil || resp.Degraded == nil {
		t.Fatalf("fault fields missing: %s", body)
	}
	if resp.Faults.Injected == 0 {
		t.Fatalf("no injected faults reported: %s", body)
	}
	if entries := s.cache.Stats().Entries; entries != 0 {
		t.Fatalf("faulted run inserted %d cache entries; the shared cache is pristine-only", entries)
	}
	// Identical faulted requests are deterministic.
	_, _, again := post(t, ts.URL+"/v1/simulate",
		`{"pattern": "allreduce", "dpus": 64, "faults": "fail-chip=1", "fault_seed": 7}`)
	if !bytes.Equal(body, again) {
		t.Fatal("faulted runs with one seed returned different bytes")
	}
}

// TestSimulateTraced: trace_level attaches a utilization aggregator and the
// summary rides the response deterministically.
func TestSimulateTraced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"pattern": "allreduce", "dpus": 64, "trace_level": "link"}`
	status, _, first := post(t, ts.URL+"/v1/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, first)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Util == nil || resp.Util.Events == 0 {
		t.Fatalf("traced run carried no utilization summary: %s", first)
	}
	_, _, second := post(t, ts.URL+"/v1/simulate", body)
	if !bytes.Equal(first, second) {
		t.Fatal("traced responses differ between identical requests")
	}
}

// TestSimulateWorkload: workload runs return the machine report.
func TestSimulateWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"workload": "GEMV", "dpus": 64}`
	status, _, first := post(t, ts.URL+"/v1/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, first)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil || resp.Report.Total <= 0 || !strings.HasPrefix(resp.Report.Workload, "GEMV") {
		t.Fatalf("incomplete workload report: %s", first)
	}
	_, _, second := post(t, ts.URL+"/v1/simulate", body)
	if !bytes.Equal(first, second) {
		t.Fatal("workload responses differ between identical requests")
	}
}

// TestSweepEndpoint: the batch endpoint preserves grid order, matches the
// single-point endpoint's results, and is worker-count invariant.
func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sweepBody := func(workers int) string {
		return fmt.Sprintf(`{"pattern": "allreduce", "dpus": [8, 64], "bytes_per_node": [4096, 16384], "workers": %d}`, workers)
	}
	status, _, body := post(t, ts.URL+"/v1/sweep", sweepBody(1))
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(resp.Points))
	}
	wantOrder := [][2]int64{{8, 4096}, {8, 16384}, {64, 4096}, {64, 16384}}
	for i, p := range resp.Points {
		if int64(p.DPUs) != wantOrder[i][0] || p.BytesPerNode != wantOrder[i][1] {
			t.Fatalf("point %d is (%d, %d), want %v", i, p.DPUs, p.BytesPerNode, wantOrder[i])
		}
		if p.TimePs <= 0 || p.PlanKey == "" {
			t.Fatalf("incomplete point %d: %+v", i, p)
		}
	}

	// Worker-count invariance of the deterministic payload.
	status, _, body4 := post(t, ts.URL+"/v1/sweep", sweepBody(4))
	if status != http.StatusOK {
		t.Fatalf("workers=4 status %d", status)
	}
	var resp4 SweepResponse
	if err := json.Unmarshal(body4, &resp4); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resp4.Points) != fmt.Sprint(resp.Points) {
		t.Fatalf("points differ across worker counts:\n%v\nvs\n%v", resp4.Points, resp.Points)
	}

	// A sweep point must agree with the single-point endpoint.
	_, _, one := post(t, ts.URL+"/v1/simulate", `{"pattern": "allreduce", "bytes_per_node": 4096, "dpus": 8}`)
	var oneResp SimulateResponse
	if err := json.Unmarshal(one, &oneResp); err != nil {
		t.Fatal(err)
	}
	if oneResp.TimePs != resp.Points[0].TimePs {
		t.Fatalf("sweep point %v != simulate %v", resp.Points[0].TimePs, oneResp.TimePs)
	}
	if oneResp.PlanKey != resp.Points[0].PlanKey {
		t.Fatal("sweep and simulate disagree on the plan key")
	}
}

// TestSweepRejections: malformed grids are 400s; an oversized grid names
// the cap.
func TestSweepRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepPoints: 2})
	cases := []string{
		`{"pattern": "allreduce"}`,
		`{"pattern": "allreduce", "dpus": [64]}`,
		`{"pattern": "allreduce", "dpus": [64], "bytes_per_node": [0]}`,
		`{"pattern": "allreduce", "dpus": [64, 256], "bytes_per_node": [4096, 8192]}`,
		`{"pattern": "allreduce", "dpus": [100], "bytes_per_node": [4096]}`,
	}
	for _, body := range cases {
		status, _, b := post(t, ts.URL+"/v1/sweep", body)
		if status != http.StatusBadRequest {
			t.Fatalf("body %s: status %d (%s)", body, status, b)
		}
	}
}

// TestMetricsAndHealth: the observability endpoints carry the counters the
// acceptance criteria name.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	if !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz body: %s", body)
	}

	post(t, ts.URL+"/v1/simulate", `{"pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`)
	post(t, ts.URL+"/v1/simulate", `{"pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`)
	post(t, ts.URL+"/v1/sweep", `{"pattern": "allreduce", "dpus": [64], "bytes_per_node": [4096, 8192]}`)
	post(t, ts.URL+"/v1/simulate", `{"pattern": "bogus"}`)

	// The removed /metrics.json endpoint now answers an enveloped 404.
	status, body = get(t, ts.URL+"/metrics.json")
	if status != http.StatusNotFound {
		t.Fatalf("metrics.json: %d, want 404 (endpoint removed)", status)
	}
	if !strings.Contains(string(body), `"error"`) {
		t.Fatalf("metrics.json 404 not enveloped: %s", body)
	}

	scrape := scrapeMetrics(t, ts.URL)
	v := func(name string, labels ...string) float64 {
		x, _ := promValue(scrape, name, labels...)
		return x
	}
	if v("pimnetd_requests_total", "endpoint", "simulate") != 3 || v("pimnetd_requests_total", "endpoint", "sweep") != 1 {
		t.Fatalf("request counters: simulate %v, sweep %v",
			v("pimnetd_requests_total", "endpoint", "simulate"), v("pimnetd_requests_total", "endpoint", "sweep"))
	}
	if v("pimnetd_responses_total", "class", "4xx") == 0 {
		t.Fatal("4xx counter not incremented")
	}
	if v("pimnetd_plan_cache_hits_total") == 0 || v("pimnetd_plan_cache_hit_rate") <= 0 {
		t.Fatalf("plan cache counters: hits %v, rate %v", v("pimnetd_plan_cache_hits_total"), v("pimnetd_plan_cache_hit_rate"))
	}
	if v("pimnetd_sweep_points_total") != 2 || v("pimnetd_sweep_plan_cache_hit_rate") <= 0 {
		t.Fatalf("sweep aggregate: points %v, rate %v", v("pimnetd_sweep_points_total"), v("pimnetd_sweep_plan_cache_hit_rate"))
	}
	if v("pimnetd_request_duration_seconds_count") == 0 {
		t.Fatal("latency histogram empty")
	}
	if v("pimnetd_uptime_seconds") <= 0 {
		t.Fatal("uptime missing")
	}
}

// TestPanicRecovery: a panic inside execution is a 500, not a dead server.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{})
	s.testHookExecute = func() { panic("boom") }
	ts := httptest.NewServer(s)
	defer ts.Close()
	status, _, body := post(t, ts.URL+"/v1/simulate", `{"pattern": "allreduce", "dpus": 64}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, body %s", status, body)
	}
	s.testHookExecute = nil
	status, _, _ = post(t, ts.URL+"/v1/simulate", `{"pattern": "allreduce", "dpus": 64}`)
	if status != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d", status)
	}
}

// TestWarmSimulateBuildsNoNetwork: a warm 2560-DPU collective simulate,
// served through the handler, allocates less than the 2560-DPU network a
// plan-cache hit no longer builds (132 KB of link table).
func TestWarmSimulateBuildsNoNetwork(t *testing.T) {
	const body = `{"pattern": "alltoall", "bytes_per_node": 32768, "dpus": 2560}`
	const reqs = 20
	s := New(Config{})
	serve := func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve() // compiles and fills the plan cache
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range reqs {
		serve()
	}
	runtime.ReadMemStats(&m1)
	if st := s.cache.Stats(); st.Misses != 1 || st.Hits != reqs {
		t.Fatalf("plan cache %+v, want 1 miss and %d hits", st, reqs)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / reqs; per >= 132<<10 {
		t.Fatalf("a warm simulate allocates %d bytes, want under one network's 132 KB", per)
	}
}
