package serve

import (
	"net/http"
	"testing"

	"pimnet/internal/metrics"
)

// TestMetricsPromExposition: GET /metrics is valid Prometheus text carrying
// the request, plan-cache, coalescing, store, job-queue, and per-tenant
// series, and it agrees with the job manager's own counters.
func TestMetricsPromExposition(t *testing.T) {
	st := openStore(t, t.TempDir())
	s, ts := newTestServer(t, Config{Store: st, TenantQuotas: map[string]int{"acme": 2}})

	// Traffic to populate every section: a sync simulate (plan cache +
	// store write), the same point again (store hit), a failing decode
	// (4xx), and one finished job per tenant pool.
	payload := `{"pattern": "allreduce", "dpus": 8, "bytes_per_node": 64}`
	if status, _, b := post(t, ts.URL+"/v1/simulate", payload); status != http.StatusOK {
		t.Fatalf("simulate: %d %s", status, b)
	}
	if status, _, _ := post(t, ts.URL+"/v1/simulate", payload); status != http.StatusOK {
		t.Fatal("repeat simulate failed")
	}
	post(t, ts.URL+"/v1/simulate", `{"pattern": "nope"}`)
	for _, tenant := range []string{"acme", ""} {
		view := submitJob(t, ts.URL, "simulate", tenant, payload)
		if final := waitJob(t, ts.URL, view.ID); final.Status != jobDone {
			t.Fatalf("job for %q: %+v", tenant, final)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var body []byte
	{
		status, b := get(t, ts.URL+"/metrics")
		if status != http.StatusOK {
			t.Fatalf("GET /metrics: %d", status)
		}
		body = b
	}
	scrape, err := metrics.ValidateProm(string(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition text:\n%s\n%v", body, err)
	}

	present := map[string]bool{}
	for _, f := range scrape.Families() {
		present[f] = true
	}
	for _, want := range []string{
		"pimnetd_uptime_seconds",
		"pimnetd_requests_total",
		"pimnetd_responses_total",
		"pimnetd_rejected_total",
		"pimnetd_coalesced_total",
		"pimnetd_in_flight",
		"pimnetd_queue_depth",
		"pimnetd_request_duration_seconds",
		"pimnetd_plan_cache_hits_total",
		"pimnetd_plan_cache_misses_total",
		"pimnetd_plan_cache_hit_rate",
		"pimnetd_sweep_points_total",
		"pimnetd_store_hits_total",
		"pimnetd_store_entries",
		"pimnetd_jobs_queued",
		"pimnetd_jobs_running",
		"pimnetd_jobs_tracked",
		"pimnetd_tenant_jobs_submitted_total",
		"pimnetd_tenant_jobs_finished_total",
		"pimnetd_tenant_jobs_quota",
	} {
		if !present[want] {
			t.Errorf("family %s missing from /metrics", want)
		}
	}

	// Per-tenant series carry both pools, and the finished counters agree
	// with the JSON snapshot.
	value := func(name, labelKey, labelVal string) (float64, bool) {
		for _, s := range scrape.Series {
			if s.Name == name && (labelKey == "" || s.Labels[labelKey] == labelVal) {
				return s.Value, true
			}
		}
		return 0, false
	}
	for _, pool := range []string{"acme", "default"} {
		if v, ok := value("pimnetd_tenant_jobs_submitted_total", "tenant", pool); !ok || v < 1 {
			t.Errorf("tenant %s submitted series: %v, %v", pool, v, ok)
		}
	}

	snap := s.jobs.snapshot()
	for _, pool := range []string{"acme", "default"} {
		tc, ok := snap.Tenants[pool]
		if !ok || tc.Done < 1 {
			t.Errorf("jobs.tenants[%s] = %+v, %v", pool, tc, ok)
		}
		if v, _ := value("pimnetd_tenant_jobs_finished_total", "tenant", pool); uint64(v) != tc.Done {
			// The "outcome" label splits finished counts; match the done slice.
			found := false
			for _, s := range scrape.Series {
				if s.Name == "pimnetd_tenant_jobs_finished_total" &&
					s.Labels["tenant"] == pool && s.Labels["outcome"] == "done" &&
					uint64(s.Value) == tc.Done {
					found = true
				}
			}
			if !found {
				t.Errorf("tenant %s finished{outcome=done} disagrees with done=%d", pool, tc.Done)
			}
		}
	}

	// The store section saw the warm hit.
	if v, ok := value("pimnetd_store_hits_total", "namespace", "results"); !ok || v < 1 {
		t.Errorf("store results hits = %v, %v (want >= 1)", v, ok)
	}
}

// TestMetricsPromWithoutStore: a store-less server still serves valid
// exposition text — the store families are simply absent.
func TestMetricsPromWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: %d", status)
	}
	scrape, err := metrics.ValidateProm(string(body))
	if err != nil {
		t.Fatalf("invalid exposition:\n%s\n%v", body, err)
	}
	for _, f := range scrape.Families() {
		if f == "pimnetd_store_hits_total" {
			t.Error("store family present without a store")
		}
	}
}

// scrapeMetrics fetches GET /metrics and validates it as exposition text.
func scrapeMetrics(t *testing.T, url string) *metrics.PromScrape {
	t.Helper()
	status, body := get(t, url+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: %d", status)
	}
	scrape, err := metrics.ValidateProm(string(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition text:\n%s\n%v", body, err)
	}
	return scrape
}

// promValue returns the first series named name whose labels match the
// given key, value pairs.
func promValue(scrape *metrics.PromScrape, name string, labels ...string) (float64, bool) {
	for _, s := range scrape.Series {
		match := s.Name == name
		for i := 0; match && i+1 < len(labels); i += 2 {
			match = s.Labels[labels[i]] == labels[i+1]
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}
