package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pimnet/internal/noc"
)

// TestNocSweepEndpoint drives POST /v1/noc/sweep end to end on a small
// shape and checks the response carries the full normalized grid.
func TestNocSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL+"/v1/noc/sweep",
		`{"ranks":2,"chips":4,"banks":8,"bytes_per_node":8192,"steps":2}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp NocSweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Nodes != 64 {
		t.Errorf("nodes = %d, want 64", resp.Nodes)
	}
	if want := 5 * 2; len(resp.Points) != want {
		t.Fatalf("points = %d, want %d (all patterns x both modes)", len(resp.Points), want)
	}
	// Defaults echo back normalized.
	if len(resp.Request.Patterns) != 5 || len(resp.Request.Modes) != 2 || resp.Request.Seed != 42 {
		t.Errorf("request not normalized: %+v", resp.Request)
	}
	for _, p := range resp.Points {
		if p.FinishPs <= 0 || p.Packets <= 0 {
			t.Errorf("point %s/%s has empty result: %+v", p.Pattern, p.Mode, p)
		}
	}
}

// TestNocSweepDeterministicBody locks the serving-tier determinism
// contract: identical requests at different worker counts produce
// byte-identical 200 bodies.
func TestNocSweepDeterministicBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The echoed request carries the differing workers field and Stats is
	// wall-clock metadata, so the deterministic section is the points array.
	points := func(body []byte) string {
		var resp struct {
			Points json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return string(resp.Points)
	}
	var serial string
	for i, workers := range []string{"1", "4", "16"} {
		status, _, body := post(t, ts.URL+"/v1/noc/sweep",
			`{"ranks":2,"chips":4,"banks":8,"patterns":["hotspot","tornado"],"steps":2,"workers":`+workers+`}`)
		if status != http.StatusOK {
			t.Fatalf("workers=%s: status %d: %s", workers, status, body)
		}
		if got := points(body); i == 0 {
			serial = got
		} else if got != serial {
			t.Errorf("workers=%s points diverged from serial:\nserial: %s\ngot:    %s",
				workers, serial, got)
		}
	}
}

// TestNocSweepRejects pins the 400 class: unknown fields, bad patterns, bad
// modes, bad topology, and oversized grids all fail loudly.
func TestNocSweepRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepPoints: 4})
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown field", `{"rnaks":2}`},
		{"bad pattern", `{"patterns":["hotspots"]}`},
		{"bad mode", `{"modes":["tcp"]}`},
		{"bad topology", `{"ranks":-1,"chips":4,"banks":8}`},
		{"single node", `{"ranks":1,"chips":1,"banks":1}`},
		{"bad steps", `{"steps":-3}`},
		{"bad bytes", `{"bytes_per_node":-1}`},
		{"grid too large", `{"ranks":2,"chips":4,"banks":8}`}, // 10 > MaxSweepPoints 4
		{"trailing data", `{"ranks":2,"chips":4,"banks":8}{}`},
	} {
		status, _, body := post(t, ts.URL+"/v1/noc/sweep", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, status, body)
		}
	}
}

// TestNocSweepMetrics checks the endpoint shows up in /metrics.
func TestNocSweepMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/noc/sweep", `{"ranks":2,"chips":2,"banks":4,"patterns":["tornado"],"steps":1}`)
	if v, _ := promValue(scrapeMetrics(t, ts.URL), "pimnetd_requests_total", "endpoint", "noc_sweep"); v != 1 {
		t.Errorf("noc_sweep counter = %v, want 1", v)
	}
}

const nocWarmBody = `{"ranks":2,"chips":2,"banks":4,"patterns":["hotspot","tornado"],"steps":1}`

// TestNocSweepWarmRestart: NoC cells are store-backed points. A restarted
// daemon answers the same /v1/noc/sweep from the store — one results hit
// per grid point, byte-identical points, and no NoC simulation at all.
func TestNocSweepWarmRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Store: openStore(t, dir)})
	code, _, cold := post(t, ts1.URL+"/v1/noc/sweep", nocWarmBody)
	if code != http.StatusOK {
		t.Fatalf("cold noc sweep: %d %s", code, cold)
	}
	ts1.Close()

	st := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Store: st})
	s2.testHookRunPoint = func(point) { t.Error("warm noc sweep simulated a cell") }
	code, _, warm := post(t, ts2.URL+"/v1/noc/sweep", nocWarmBody)
	if code != http.StatusOK {
		t.Fatalf("warm noc sweep: %d %s", code, warm)
	}
	if !bytes.Equal(trimStats(t, warm), trimStats(t, cold)) {
		t.Fatalf("warm restart changed bytes:\ncold %s\nwarm %s", cold, warm)
	}
	const points = 4 // 2 patterns x 2 modes
	if rs := st.Stats(); rs.Hits != points || rs.Misses != 0 {
		t.Fatalf("warm results traffic %+v, want %d hits, 0 misses", rs, points)
	}
}

// TestNocSweepCoalesces: a second identical NoC sweep arriving while the
// first executes rides the first's flights — every cell is coalesced — and
// both get the same points.
func TestNocSweepCoalesces(t *testing.T) {
	s := New(Config{})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookExecute = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := make(chan []byte, 2)
	fire := func() {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/noc/sweep", "application/json", strings.NewReader(nocWarmBody))
			if err != nil {
				t.Error(err)
				bodies <- nil
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies <- b
		}()
	}
	fire()
	<-entered // the first sweep leads every cell
	fire()
	waitUntil(t, "the twin sweep to coalesce", func() bool { return s.met.coalesced.Load() == 4 })
	close(release)
	a, b := <-bodies, <-bodies
	if !bytes.Equal(trimStats(t, a), trimStats(t, b)) {
		t.Fatalf("coalesced twins diverged:\n%s\n%s", a, b)
	}
	if v, _ := promValue(scrapeMetrics(t, ts.URL), "pimnetd_coalesced_total"); v != 4 {
		t.Fatalf("pimnetd_coalesced_total = %v, want 4", v)
	}
}

// TestNocPointKeyNamesRawValues: a NoC cell's identity hashes every field by
// raw value. Timings one picosecond apart are different cells, although
// sim.Time's String form rounds them to the same text, and a field added to
// the cell must be added to point.key too.
func TestNocPointKeyNamesRawValues(t *testing.T) {
	if n := reflect.TypeOf(noc.Config{}).NumField(); n != 10 {
		t.Fatalf("noc.Config has %d fields; name the new ones in point.key, then update this count", n)
	}
	if n := reflect.TypeOf(noc.PatternPoint{}).NumField(); n != 6 {
		t.Fatalf("noc.PatternPoint has %d fields; name the new ones in point.key, then update this count", n)
	}
	cell := func(edit func(*noc.PatternPoint)) point {
		pp := noc.PatternPoint{Config: noc.DefaultConfig(2, 2, 4), Mode: noc.CreditBased,
			Pattern: noc.Hotspot, BytesPerNode: 4096, Steps: 1, Seed: 42}
		edit(&pp)
		return point{noc: &pp}
	}
	base := cell(func(*noc.PatternPoint) {}).key()
	if again := cell(func(*noc.PatternPoint) {}).key(); again != base {
		t.Fatal("equal cells have different keys")
	}
	for name, edit := range map[string]func(*noc.PatternPoint){
		"hop latency":  func(p *noc.PatternPoint) { p.Config.HopLatency++ },
		"sync latency": func(p *noc.PatternPoint) { p.Config.SyncLatency++ },
		"ring rate":    func(p *noc.PatternPoint) { p.Config.RingRate = math.Nextafter(p.Config.RingRate, 2e9) },
		"buffer":       func(p *noc.PatternPoint) { p.Config.BufferPackets++ },
		"mode":         func(p *noc.PatternPoint) { p.Mode = noc.StaticScheduled },
		"seed":         func(p *noc.PatternPoint) { p.Seed++ },
	} {
		if cell(edit).key() == base {
			t.Errorf("%s: a different cell has the same key", name)
		}
	}
}
