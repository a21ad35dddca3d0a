package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pimnet/internal/store"
)

// serveTestFP stamps test stores; every "restart" in this file reopens
// under the same stamp, modeling a restart of the same build.
const serveTestFP = "serve-store-test-fingerprint"

// openStore opens a persistent store on dir for a test server.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir, Fingerprint: serveTestFP})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// trimStats cuts a sweep response at its stats section: everything before
// it is the deterministic result payload, stats is wall-clock metadata that
// legitimately varies run to run (same convention as the smoke scripts).
func trimStats(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`,"stats":`))
	if i < 0 {
		t.Fatalf("sweep body has no stats section: %s", body)
	}
	return body[:i]
}

const warmSweepBody = `{"pattern": "allreduce", "dpus": [64, 256], "bytes_per_node": [4096, 32768]}`

// TestWarmRestartSweepByteIdentical is the acceptance test for warm
// restarts: a sweep, a "restart" (fresh server + fresh cache over a
// reopened store directory), and the same sweep again must produce a
// byte-identical result payload with zero plan compiles — every point is a
// store read.
func TestWarmRestartSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: st1})
	code, _, cold := post(t, ts1.URL+"/v1/sweep", warmSweepBody)
	if code != http.StatusOK {
		t.Fatalf("cold sweep: %d %s", code, cold)
	}
	stats := st1.Stats()
	if stats.Writes != 4 || stats.Entries != 4 {
		t.Fatalf("cold sweep stored %d results in %d entries, want 4 and 4 (results only)", stats.Writes, stats.Entries)
	}
	ts1.Close()

	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Store: st2})
	code, _, warm := post(t, ts2.URL+"/v1/sweep", warmSweepBody)
	if code != http.StatusOK {
		t.Fatalf("warm sweep: %d %s", code, warm)
	}
	if got, want := trimStats(t, warm), trimStats(t, cold); !bytes.Equal(got, want) {
		t.Fatalf("warm restart changed bytes:\ncold %s\nwarm %s", want, got)
	}
	if cs := s2.cache.Stats(); cs.Misses != 0 {
		t.Fatalf("warm restart compiled %d plans, want 0", cs.Misses)
	}
	if rs := st2.Stats(); rs.Hits != 4 || rs.Misses != 0 {
		t.Fatalf("warm restart results traffic: %+v, want 4 hits, 0 misses", rs)
	}
}

// TestWarmRestartSimulateByteIdentical: the single-point endpoint served
// from the store must return the stored 200 body verbatim, without taking
// an execution slot or compiling anything.
func TestWarmRestartSimulateByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: st1})
	code, _, cold := post(t, ts1.URL+"/v1/simulate", coalesceBody)
	if code != http.StatusOK {
		t.Fatalf("cold simulate: %d %s", code, cold)
	}
	ts1.Close()

	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Store: st2})
	s2.testHookExecute = func() { t.Error("warm hit entered the execution path") }
	code, _, warm := post(t, ts2.URL+"/v1/simulate", coalesceBody)
	if code != http.StatusOK {
		t.Fatalf("warm simulate: %d %s", code, warm)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("warm restart changed bytes:\ncold %s\nwarm %s", cold, warm)
	}
	if cs := s2.cache.Stats(); cs.Misses != 0 {
		t.Fatalf("warm restart compiled %d plans, want 0", cs.Misses)
	}
	if rs := st2.Stats(); rs.Hits != 1 {
		t.Fatalf("warm restart results traffic: %+v, want 1 hit", rs)
	}
}

// TestWarmRestartChunkAndCrossEndpointDedup: a sweep executed before the
// restart warms the very blobs /v1/chunk reads after it — the cross-fleet
// dedup path: any worker handed any slice of an already-computed grid
// answers it as disk reads, byte-compatible with the sweep's own points.
func TestWarmRestartChunkAndCrossEndpointDedup(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: st1})
	code, _, sweepBody := post(t, ts1.URL+"/v1/sweep", warmSweepBody)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, sweepBody)
	}
	var sweepResp SweepResponse
	if err := json.Unmarshal(sweepBody, &sweepResp); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Store: st2})
	chunk := `{"points": [{"dpus": 64, "bytes_per_node": 4096}, {"dpus": 256, "bytes_per_node": 32768}]}`
	code, _, body := post(t, ts2.URL+"/v1/chunk", chunk)
	if code != http.StatusOK {
		t.Fatalf("chunk: %d %s", code, body)
	}
	var chunkResp ChunkResponse
	if err := json.Unmarshal(body, &chunkResp); err != nil {
		t.Fatal(err)
	}
	want := []SweepPoint{sweepResp.Points[0], sweepResp.Points[3]}
	if len(chunkResp.Points) != 2 {
		t.Fatalf("chunk returned %d points", len(chunkResp.Points))
	}
	for i := range want {
		a, _ := json.Marshal(chunkResp.Points[i])
		b, _ := json.Marshal(want[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("chunk point %d diverged from the sweep's: %s vs %s", i, a, b)
		}
	}
	if cs := s2.cache.Stats(); cs.Misses != 0 {
		t.Fatalf("warm chunk compiled %d plans, want 0", cs.Misses)
	}
	if rs := st2.Stats(); rs.Hits != 2 {
		t.Fatalf("warm chunk results traffic: %+v, want 2 hits", rs)
	}
}

// TestBudgetKeepsResultsUnderLargeSweeps: under an 8 MiB budget, a sweep
// of paper-scale all-to-all points must not evict the results of an earlier
// small sweep — the store holds result records only, a few hundred bytes
// each — so repeating the small sweep is answered entirely from the store.
func TestBudgetKeepsResultsUnderLargeSweeps(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), MaxBytes: 8 << 20, Fingerprint: serveTestFP})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})
	sweep := func(body string) {
		t.Helper()
		if code, _, got := post(t, ts.URL+"/v1/sweep", body); code != http.StatusOK {
			t.Fatalf("sweep %s: %d %s", body, code, got)
		}
	}
	sweep(warmSweepBody)
	sweep(`{"pattern": "alltoall", "dpus": [2560], "bytes_per_node": [4096, 65536, 1048576]}`)
	before := st.Stats()
	sweep(warmSweepBody)
	after := st.Stats()
	if hits := after.Hits - before.Hits; hits != 4 || after.Evictions != 0 {
		t.Fatalf("repeated sweep: %d store hits, %d evictions; want 4 hits, 0 evictions", hits, after.Evictions)
	}
}

// TestStoreHitLeaderFeedsCoalescedFollowers is the composition regression:
// followers who coalesce onto a leader that answered from the store must
// receive the stored bytes verbatim, exactly as they would a computed
// response — a store hit finishes the flight like any other leader result.
func TestStoreHitLeaderFeedsCoalescedFollowers(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Config{Store: st})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, _, primed := post(t, ts.URL+"/v1/simulate", coalesceBody)
	if code != http.StatusOK {
		t.Fatalf("priming request: %d %s", code, primed)
	}

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookStoreHit = func() {
		entered <- struct{}{}
		<-release
	}
	leaderDone := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(coalesceBody))
		if err != nil {
			t.Errorf("leader: %v", err)
			leaderDone <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		leaderDone <- body
	}()
	<-entered // leader is parked inside its store hit, flight open

	const followers = 3
	wait := fireFollowers(t, ts.URL, followers)
	waitUntil(t, "followers to join the store-hit flight", func() bool {
		return s.met.coalesced.Load() == followers
	})
	close(release)

	leaderBody := <-leaderDone
	statuses, bodies := wait()
	if !bytes.Equal(leaderBody, primed) {
		t.Fatalf("store-hit leader bytes diverged: %s vs %s", leaderBody, primed)
	}
	for i := 0; i < followers; i++ {
		if statuses[i] != http.StatusOK || !bytes.Equal(bodies[i], primed) {
			t.Fatalf("follower %d: status %d body %s, want the stored bytes", i, statuses[i], bodies[i])
		}
	}
	// One store hit total: the flight fanned the single disk read out.
	if rs := st.Stats(); rs.Hits != 1 {
		t.Fatalf("results hits = %d, want 1 (followers ride the leader's read)", rs.Hits)
	}
}

// TestCanceledLeaderNeverPoisonsStore is the store side of the 499
// contract: a leader whose client vanished publishes its complete 499 to
// followers (the coalescer's rule), and that 499 must never enter the
// result store — the next fresh request computes a real 200, and only that
// is persisted and served warm from then on.
func TestCanceledLeaderNeverPoisonsStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Config{Store: st})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookExecute = func() {
		entered <- struct{}{}
		<-release
	}
	var ctxMu sync.Mutex
	var leaderReqCtx context.Context
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctxMu.Lock()
		if leaderReqCtx == nil {
			leaderReqCtx = r.Context()
		}
		ctxMu.Unlock()
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()

	lctx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(lctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(coalesceBody))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	<-entered

	const followers = 2
	wait := fireFollowers(t, ts.URL, followers)
	waitUntil(t, "followers to join the flight", func() bool {
		return s.met.coalesced.Load() == followers
	})
	cancelLeader()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader client returned without error despite cancellation")
	}
	waitUntil(t, "server to observe the cancellation", func() bool {
		ctxMu.Lock()
		defer ctxMu.Unlock()
		return leaderReqCtx != nil && leaderReqCtx.Err() != nil
	})
	close(release)

	statuses, bodies := wait()
	for i := range statuses {
		if statuses[i] != 499 {
			t.Fatalf("follower %d: status %d body %s, want the leader's 499", i, statuses[i], bodies[i])
		}
	}
	if rs := st.Stats(); rs.Writes != 0 {
		t.Fatalf("a 499 entered the store: %+v", rs)
	}

	// The failed flight left nothing behind: the next request computes a
	// real 200, stores it, and the one after that is a warm hit.
	s.testHookExecute = nil
	code, _, first := post(t, ts.URL+"/v1/simulate", coalesceBody)
	if code != http.StatusOK {
		t.Fatalf("post-499 request: %d %s", code, first)
	}
	code, _, second := post(t, ts.URL+"/v1/simulate", coalesceBody)
	if code != http.StatusOK || !bytes.Equal(second, first) {
		t.Fatalf("warm replay after 499: %d, bytes equal %v", code, bytes.Equal(second, first))
	}
	if rs := st.Stats(); rs.Writes != 1 || rs.Hits != 1 {
		t.Fatalf("post-499 store traffic: %+v, want 1 write, 1 hit", rs)
	}
}

// TestCorruptResultBlobRecomputedNeverServed: flip bits in every stored
// result blob, then repeat the request — the daemon must detect the damage
// (counted in /metrics), recompute, and return bytes identical to the
// original response. Corruption can cost work, never correctness.
func TestCorruptResultBlobRecomputedNeverServed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, ts := newTestServer(t, Config{Store: st})
	code, _, original := post(t, ts.URL+"/v1/simulate", coalesceBody)
	if code != http.StatusOK {
		t.Fatalf("priming request: %d %s", code, original)
	}

	flipped := 0
	err := filepath.WalkDir(filepath.Join(dir, store.NSResults), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		blob[len(blob)-1] ^= 0x40
		flipped++
		return os.WriteFile(path, blob, 0o644)
	})
	if err != nil || flipped == 0 {
		t.Fatalf("corrupting blobs: flipped %d, err %v", flipped, err)
	}

	code, _, replay := post(t, ts.URL+"/v1/simulate", coalesceBody)
	if code != http.StatusOK {
		t.Fatalf("replay: %d %s", code, replay)
	}
	if !bytes.Equal(replay, original) {
		t.Fatalf("recomputed bytes diverged:\noriginal %s\nreplay   %s", original, replay)
	}
	rs := st.Stats()
	if rs.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", rs.Corrupt)
	}
	if rs.Writes != 2 {
		t.Fatalf("Writes = %d, want 2 (original + recompute)", rs.Writes)
	}
}

// TestMetricsStoreSection: /metrics grows the store families exactly when a
// store is attached, carrying the hit/miss/write/corruption counters the
// smoke test and operators read.
func TestMetricsStoreSection(t *testing.T) {
	st := openStore(t, t.TempDir())
	_, ts := newTestServer(t, Config{Store: st})
	post(t, ts.URL+"/v1/simulate", coalesceBody)
	post(t, ts.URL+"/v1/simulate", coalesceBody) // warm hit

	scrape := scrapeMetrics(t, ts.URL)
	hits, ok := promValue(scrape, "pimnetd_store_hits_total", "namespace", "results")
	if !ok {
		t.Fatal("metrics missing the store families")
	}
	if writes, _ := promValue(scrape, "pimnetd_store_writes_total", "namespace", "results"); hits != 1 || writes != 1 {
		t.Fatalf("store results hits %v, writes %v, want 1 hit, 1 write", hits, writes)
	}
	var bytes, entries float64
	bytes, _ = promValue(scrape, "pimnetd_store_bytes", "namespace", "results")
	entries, _ = promValue(scrape, "pimnetd_store_entries", "namespace", "results")
	if bytes <= 0 || entries <= 0 {
		t.Fatalf("store families report empty disk: %v bytes, %v entries", bytes, entries)
	}
	if _, ok := promValue(scrape, "pimnetd_store_entries", "namespace", "plans"); ok {
		t.Fatal("metrics still report a plans namespace")
	}

	// Without a store the families are absent, not zeroed.
	_, plain := newTestServer(t, Config{})
	for _, f := range scrapeMetrics(t, plain.URL).Families() {
		if strings.HasPrefix(f, "pimnetd_store_") {
			t.Fatalf("storeless daemon reports store family %s", f)
		}
	}
}

// TestOldStoreEncodingNeverServed: results written by the previous store
// encoding — rendered /v1/simulate bodies under a "simulate" key tag and
// SweepPoint JSON under a "point" tag — must never be served. The old keys
// are never looked up, and a SweepPoint payload found under a current key
// fails the strict record decoding: it is counted corrupt and recomputed.
func TestOldStoreEncodingNeverServed(t *testing.T) {
	const sim = `{"pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`
	const grid = `{"pattern": "allreduce", "dpus": [64], "bytes_per_node": [4096]}`
	_, fresh := newTestServer(t, Config{})
	_, _, wantSim := post(t, fresh.URL+"/v1/simulate", sim)
	_, _, wantSweep := post(t, fresh.URL+"/v1/sweep", grid)

	_, pt, err := DecodeSimulateRequest(strings.NewReader(sim))
	if err != nil {
		t.Fatal(err)
	}
	// oldKey is the previous encoding's key derivation: a namespace tag over
	// the point's identity fields.
	oldKey := func(tag string) string {
		h := sha256.New()
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%t\x00%d\x00%s\x00%d\x00%s", tag, pt.planKey,
			pt.kind.String(), pt.workload, pt.scaled, pt.seed, pt.faults, pt.seedF, pt.trace)
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	poisonPoint := []byte(`{"dpus":64,"bytes_per_node":4096,"time_ps":1,"time":"1ps","breakdown":{},"plan_key":"poison"}`)
	poisonBody := []byte(`{"request":{"backend":"pimnet"},"backend":"PIMnet","plan_key":"poison","time_ps":1,"time":"1ps"}`)

	st := openStore(t, t.TempDir())
	for key, payload := range map[string][]byte{
		oldKey("simulate"): poisonBody,
		oldKey("point"):    poisonPoint,
		pt.key():           poisonPoint,
	} {
		if err := st.Put(store.NSResults, key, payload); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Config{Store: st})
	if _, _, got := post(t, ts.URL+"/v1/simulate", sim); !bytes.Equal(got, wantSim) {
		t.Fatalf("simulate served old store data:\n got %s\nwant %s", got, wantSim)
	}
	if _, _, got := post(t, ts.URL+"/v1/sweep", grid); !bytes.Equal(trimStats(t, got), trimStats(t, wantSweep)) {
		t.Fatalf("sweep served old store data:\n got %s\nwant %s", got, wantSweep)
	}
	if rs := st.Stats(); rs.Corrupt != 1 || rs.Writes != 4 {
		t.Fatalf("results traffic %+v, want the SweepPoint payload rejected once and one recomputed record written", rs)
	}
}

// TestPanickedPointNeverStored: a point whose simulation panics settles as a
// 500 and writes nothing, on the lone-point and the grid path alike; once the
// panic is gone the same requests recompute and answer exactly what a
// storeless server does.
func TestPanickedPointNeverStored(t *testing.T) {
	_, fresh := newTestServer(t, Config{})
	_, _, wantSim := post(t, fresh.URL+"/v1/simulate", coalesceBody)
	_, _, wantSweep := post(t, fresh.URL+"/v1/sweep", warmSweepBody)

	st := openStore(t, t.TempDir())
	s, ts := newTestServer(t, Config{Store: st})
	s.testHookRunPoint = func(pt point) {
		if pt.req.Nodes == 256 {
			panic("boom")
		}
	}
	for path, body := range map[string]string{"/v1/simulate": coalesceBody, "/v1/sweep": warmSweepBody} {
		if code, _, got := post(t, ts.URL+path, body); code != http.StatusInternalServerError {
			t.Fatalf("%s with a panicking point: %d %s, want 500", path, code, got)
		}
	}
	_, pt, err := DecodeSimulateRequest(strings.NewReader(coalesceBody))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(store.NSResults, pt.key()); ok {
		t.Fatal("a panicked point was stored")
	}

	s.testHookRunPoint = nil
	if code, _, got := post(t, ts.URL+"/v1/simulate", coalesceBody); code != http.StatusOK || !bytes.Equal(got, wantSim) {
		t.Fatalf("simulate retry: %d\n got %s\nwant %s", code, got, wantSim)
	}
	if code, _, got := post(t, ts.URL+"/v1/sweep", warmSweepBody); code != http.StatusOK ||
		!bytes.Equal(trimStats(t, got), trimStats(t, wantSweep)) {
		t.Fatalf("sweep retry: %d\n got %s\nwant %s", code, got, wantSweep)
	}
}

// TestEmptyRecordNeverServed: no point's result is an empty record, so an
// empty payload under a point's key is counted corrupt and recomputed.
func TestEmptyRecordNeverServed(t *testing.T) {
	_, fresh := newTestServer(t, Config{})
	_, _, want := post(t, fresh.URL+"/v1/simulate", coalesceBody)

	_, pt, err := DecodeSimulateRequest(strings.NewReader(coalesceBody))
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, t.TempDir())
	if err := st.Put(store.NSResults, pt.key(), []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})
	if code, _, got := post(t, ts.URL+"/v1/simulate", coalesceBody); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("simulate over an empty record: %d\n got %s\nwant %s", code, got, want)
	}
	if rs := st.Stats(); rs.Corrupt != 1 {
		t.Fatalf("results traffic %+v, want the empty record rejected once", rs)
	}
}

// TestSeedFreeWorkloadSharesOneRecord: on a store-backed server, two GEMV
// simulates that differ only in seed share one point identity, so the
// workload runs once and one record is written, while each body echoes its
// caller's own seed. Scaled SpMV reads its seed, so its two seeds run twice.
func TestSeedFreeWorkloadSharesOneRecord(t *testing.T) {
	st := openStore(t, t.TempDir())
	s, ts := newTestServer(t, Config{Store: st})
	var runs atomic.Int32
	s.testHookRunPoint = func(point) { runs.Add(1) }
	for _, c := range []struct {
		workload             string
		wantRuns, wantWrites int
	}{{"GEMV", 1, 1}, {"SpMV", 2, 3}} {
		runs.Store(0)
		for _, seed := range []int64{1, 2} {
			body := fmt.Sprintf(`{"workload": %q, "seed": %d}`, c.workload, seed)
			code, _, got := post(t, ts.URL+"/v1/simulate", body)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", body, code, got)
			}
			var resp SimulateResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Request.Seed != seed {
				t.Fatalf("%s: body echoes seed %d", body, resp.Request.Seed)
			}
		}
		if n := runs.Load(); int(n) != c.wantRuns {
			t.Fatalf("%s under seeds 1 and 2 ran %d times, want %d", c.workload, n, c.wantRuns)
		}
		if w := st.Stats().Writes; int(w) != c.wantWrites {
			t.Fatalf("after %s: %d records written, want %d", c.workload, w, c.wantWrites)
		}
	}
}
