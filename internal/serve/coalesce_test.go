package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// coalesceBody is a simulate payload heavy enough that followers would
// plausibly pile onto the leader's flight in production.
const coalesceBody = `{"pattern": "allreduce", "bytes_per_node": 32768, "dpus": 256}`

// fireFollowers launches n identical requests and returns a wait function
// yielding their (status, body) pairs. Followers join the leader's flight;
// the caller is responsible for having parked the leader first.
func fireFollowers(t *testing.T, url string, n int) func() ([]int, [][]byte) {
	t.Helper()
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(coalesceBody))
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	return func() ([]int, [][]byte) {
		wg.Wait()
		return statuses, bodies
	}
}

// TestCoalescedFollowersGetLeaderCancellation: the leader's client gives
// up mid-flight. The leader must still finish the flight, and every
// follower must promptly receive the leader's complete 499 response —
// identical, well-formed bytes — rather than hanging until their own
// deadlines or reading a partial body.
func TestCoalescedFollowersGetLeaderCancellation(t *testing.T) {
	s := New(Config{})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookExecute = func() {
		entered <- struct{}{}
		<-release
	}
	// Wrap the server to capture the leader's server-side request context:
	// client disconnect propagates to it asynchronously, and the test must
	// wait for the server to have observed the cancellation before letting
	// the leader resume — otherwise the leader races to a 200.
	var ctxMu sync.Mutex
	var leaderReqCtx context.Context
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctxMu.Lock()
		if leaderReqCtx == nil { // the leader is the first request in
			leaderReqCtx = r.Context()
		}
		ctxMu.Unlock()
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// The leader runs on a context the test cancels mid-execution.
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
	<-entered // leader is parked inside its admission slot

	const followers = 3
	wait := fireFollowers(t, ts.URL, followers)
	waitUntil(t, "followers to join the flight", func() bool {
		return s.met.coalesced.Load() == followers
	})

	cancelLeader()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader client returned without error despite cancellation")
	}
	waitUntil(t, "server to observe the leader's cancellation", func() bool {
		ctxMu.Lock()
		defer ctxMu.Unlock()
		return leaderReqCtx != nil && leaderReqCtx.Err() != nil
	})
	close(release) // leader resumes, observes its dead context, finishes the flight

	statuses, bodies := wait()
	for i := 0; i < followers; i++ {
		if statuses[i] != 499 {
			t.Fatalf("follower %d: status %d (body %s), want the leader's 499", i, statuses[i], bodies[i])
		}
		var wire errorEnvelope
		if err := json.Unmarshal(bodies[i], &wire); err != nil {
			t.Fatalf("follower %d received partial/invalid bytes %q: %v", i, bodies[i], err)
		}
		if wire.Error.Message != "client canceled request" || wire.Error.Code != "client_closed" {
			t.Fatalf("follower %d: error %+v", i, wire.Error)
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("follower bodies diverged: %q vs %q", bodies[i], bodies[0])
		}
	}
}

// TestCoalescedFollowersGetLeaderPanic: the leader panics mid-execution.
// Panic recovery renders the 500, the flight still finishes, and every
// follower receives that complete 500 — a crashed leader must never strand
// its followers.
func TestCoalescedFollowersGetLeaderPanic(t *testing.T) {
	s := New(Config{})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookExecute = func() {
		entered <- struct{}{}
		<-release
		panic("boom")
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	leaderDone := make(chan struct{})
	var leaderStatus int
	var leaderBody []byte
	go func() {
		defer close(leaderDone)
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(coalesceBody))
		if err != nil {
			t.Errorf("leader: %v", err)
			return
		}
		defer resp.Body.Close()
		leaderStatus = resp.StatusCode
		leaderBody, _ = io.ReadAll(resp.Body)
	}()
	<-entered

	const followers = 3
	wait := fireFollowers(t, ts.URL, followers)
	waitUntil(t, "followers to join the flight", func() bool {
		return s.met.coalesced.Load() == followers
	})

	close(release) // leader resumes and panics
	<-leaderDone
	if leaderStatus != http.StatusInternalServerError {
		t.Fatalf("leader status %d (body %s), want 500", leaderStatus, leaderBody)
	}
	if !strings.Contains(string(leaderBody), "internal panic") {
		t.Fatalf("leader body %q does not report the panic", leaderBody)
	}

	statuses, bodies := wait()
	for i := 0; i < followers; i++ {
		if statuses[i] != http.StatusInternalServerError {
			t.Fatalf("follower %d: status %d (body %s), want the leader's 500", i, statuses[i], bodies[i])
		}
		if string(bodies[i]) != string(leaderBody) {
			t.Fatalf("follower %d bytes %q differ from leader %q", i, bodies[i], leaderBody)
		}
	}

	// The server must survive: the panicking hook is gone, the next
	// identical request starts a fresh flight and succeeds.
	s.testHookExecute = nil
	status, _, body := post(t, ts.URL+"/v1/simulate", coalesceBody)
	if status != http.StatusOK {
		t.Fatalf("server did not recover after leader panic: %d %s", status, body)
	}
}

// TestSharedPointEchoesEachCaller is the echo regression: two spellings of
// one point ({"backend":"p"} and {"backend":"pimnet"}) share a flight and a
// store record, yet each response must echo its own normalized request —
// byte-identical to what a fresh storeless server answers for that payload.
func TestSharedPointEchoesEachCaller(t *testing.T) {
	const short = `{"backend": "p", "pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`
	const long = `{"backend": "pimnet", "pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}`
	_, fresh := newTestServer(t, Config{})
	want := map[string][]byte{}
	for _, body := range []string{short, long} {
		code, _, b := post(t, fresh.URL+"/v1/simulate", body)
		if code != http.StatusOK {
			t.Fatalf("fresh server: %d %s", code, b)
		}
		want[body] = b
	}
	if bytes.Equal(want[short], want[long]) {
		t.Fatal("the two spellings echo identically; the test cannot tell them apart")
	}

	t.Run("store", func(t *testing.T) {
		st := openStore(t, t.TempDir())
		_, ts := newTestServer(t, Config{Store: st})
		for _, body := range []string{short, long} {
			if _, _, got := post(t, ts.URL+"/v1/simulate", body); !bytes.Equal(got, want[body]) {
				t.Fatalf("payload %s:\n got %s\nwant %s", body, got, want[body])
			}
		}
		if rs := st.Stats().Results; rs.Hits != 1 || rs.Writes != 1 {
			t.Fatalf("results traffic %+v, want the second spelling served from the first's record", rs)
		}
	})

	t.Run("coalesced", func(t *testing.T) {
		s := New(Config{})
		entered := make(chan struct{}, 1)
		release := make(chan struct{})
		s.testHookExecute = func() {
			entered <- struct{}{}
			<-release
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		got := make(map[string][]byte)
		var mu sync.Mutex
		var wg sync.WaitGroup
		fire := func(body string) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				mu.Lock()
				got[body] = b
				mu.Unlock()
			}()
		}
		fire(short)
		<-entered // the leader holds the point's flight
		fire(long)
		waitUntil(t, "the twin to coalesce", func() bool { return s.met.coalesced.Load() == 1 })
		close(release)
		wg.Wait()
		for _, body := range []string{short, long} {
			if !bytes.Equal(got[body], want[body]) {
				t.Fatalf("payload %s:\n got %s\nwant %s", body, got[body], want[body])
			}
		}
	})
}
