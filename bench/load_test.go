package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClosedLoopTwins: a twin reaches the server from every client at the
// same time; other items are sent once each, and every request gets an
// outcome tagged with its item.
func TestClosedLoopTwins(t *testing.T) {
	var inFlight, maxTwin atomic.Int32
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		if string(body) == "twin" {
			for cur := maxTwin.Load(); n > cur && !maxTwin.CompareAndSwap(cur, n); cur = maxTwin.Load() {
			}
			time.Sleep(20 * time.Millisecond) // hold the slot so the copies overlap
		}
		mu.Lock()
		seen[string(body)]++
		mu.Unlock()
		w.Write(body)
	}))
	defer srv.Close()

	items := []item{
		{kind: "collective", path: "/", body: []byte("a")},
		{kind: "collective", path: "/", body: []byte("b")},
		{kind: "workload", path: "/", body: []byte("twin"), twin: true},
		{kind: "collective", path: "/", body: []byte("c")},
	}
	outs, _ := closedLoop{base: srv.URL, clients: 2}.run(context.Background(), items)
	if len(outs) != 5 {
		t.Fatalf("%d outcomes, want 5 (the twin twice)", len(outs))
	}
	for _, o := range outs {
		if !o.ok() {
			t.Errorf("item %d: status %d", o.idx, o.status)
		}
	}
	if seen["twin"] != 2 || seen["a"] != 1 || seen["c"] != 1 {
		t.Errorf("server saw %v", seen)
	}
	if maxTwin.Load() < 2 {
		t.Error("the twin's copies never overlapped at the server")
	}

	// One client: a twin is sent once.
	outs, _ = closedLoop{base: srv.URL, clients: 1}.run(context.Background(), items)
	if len(outs) != 4 {
		t.Errorf("%d outcomes with one client, want 4", len(outs))
	}
}

// TestIdentity flags identical requests that got different bodies.
func TestIdentity(t *testing.T) {
	items := []item{{path: "/v1/simulate", body: []byte(`{"x":1}`)}}
	id := newIdentity()
	id.add(items, []outcome{{idx: 0, status: 200, digest: [32]byte{1}}, {idx: 0, status: 200, digest: [32]byte{1}}})
	if len(id.problems) != 0 {
		t.Fatalf("equal bodies flagged: %v", id.problems)
	}
	id.add(items, []outcome{{idx: 0, status: 503, digest: [32]byte{9}}})
	if len(id.problems) != 0 {
		t.Fatal("a failed request took part in the identity check")
	}
	id.add(items, []outcome{{idx: 0, status: 200, digest: [32]byte{2}}})
	if len(id.problems) != 1 {
		t.Fatalf("differing bodies not flagged: %v", id.problems)
	}
}

func TestParseProm(t *testing.T) {
	text := []byte(`# HELP pimnetd_coalesced_total x
# TYPE pimnetd_coalesced_total counter
pimnetd_coalesced_total 3
pimnetd_store_hits_total{namespace="results"} 40
pimnetd_store_misses_total{namespace="results"} 10
pimnetd_plan_cache_hits_total 6
pimnetd_plan_cache_misses_total 2
`)
	after, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	d := diffScrape(promScrape{}, after)
	if ratio(d.storeHits, d.storeLookups) != 0.8 || ratio(d.planHits, d.planLookups) != 0.75 || d.coalesced != 3 {
		t.Errorf("delta %+v", d)
	}
	if _, err := parseProm([]byte("pimnetd_x notanumber\n")); err == nil {
		t.Error("malformed sample accepted")
	}
}
