package serve

import (
	"sort"
	"time"

	"pimnet/internal/metrics"
	"pimnet/internal/report"
)

// promSource is implemented by a Sweeper that exports its own families (the
// cluster coordinator's dispatch and fleet-health counters); GET /metrics
// appends them.
type promSource interface {
	PromFamilies() []metrics.PromFamily
}

// promFamilies renders the server's counters as Prometheus exposition
// families: GET /metrics.
func (s *Server) promFamilies() []metrics.PromFamily {
	counter := func(name, help string, v float64, samples ...metrics.PromSample) metrics.PromFamily {
		if samples == nil {
			samples = []metrics.PromSample{{Value: v}}
		}
		return metrics.PromFamily{Name: name, Help: help, Kind: metrics.PromCounter, Samples: samples}
	}
	gauge := func(name, help string, v float64) metrics.PromFamily {
		return metrics.PromFamily{Name: name, Help: help, Kind: metrics.PromGauge,
			Samples: []metrics.PromSample{{Value: v}}}
	}
	m := &s.met

	fams := []metrics.PromFamily{
		gauge("pimnetd_uptime_seconds", "Seconds since the server started.", time.Since(m.start).Seconds()),
	}

	// Per-endpoint request counters, in sorted label order for deterministic
	// scrapes.
	requests := []struct {
		endpoint string
		n        uint64
	}{
		{"chunk", m.chunk.Load()},
		{"healthz", m.healthz.Load()},
		{"job_events", m.jobEvents.Load()},
		{"job_result", m.jobResult.Load()},
		{"job_status", m.jobStatus.Load()},
		{"jobs", m.jobSubmit.Load()},
		{"metrics", m.metrics.Load()},
		{"noc_sweep", m.nocSweep.Load()},
		{"simulate", m.simulate.Load()},
		{"sweep", m.sweep.Load()},
	}
	reqSamples := make([]metrics.PromSample, len(requests))
	for i, r := range requests {
		reqSamples[i] = metrics.PromSample{Labels: [][2]string{{"endpoint", r.endpoint}}, Value: float64(r.n)}
	}
	fams = append(fams,
		counter("pimnetd_requests_total", "Requests received, by endpoint.", 0, reqSamples...),
		counter("pimnetd_responses_total", "Error responses, by status class.", 0,
			metrics.PromSample{Labels: [][2]string{{"class", "4xx"}}, Value: float64(m.status4xx.Load())},
			metrics.PromSample{Labels: [][2]string{{"class", "5xx"}}, Value: float64(m.status5xx.Load())}),
		counter("pimnetd_rejected_total", "Requests shed by admission control or draining.", float64(m.rejected.Load())),
		counter("pimnetd_coalesced_total", "Points served from another request's in-flight execution.", float64(m.coalesced.Load())),
		gauge("pimnetd_in_flight", "Executions currently holding an admission slot.", float64(m.inFlight.Load())),
		gauge("pimnetd_queue_depth", "Requests waiting for an admission slot.", float64(s.gate.waiting())),
	)

	// Latency histogram: bucket bounds convert from milliseconds to the
	// Prometheus-conventional seconds.
	cumulative := uint64(0)
	hsamples := make([]metrics.PromSample, 0, len(m.latency.counts)+2)
	for i := range m.latency.counts {
		cumulative += m.latency.counts[i].Load()
		le := "+Inf"
		if i < len(latencyBucketsMs) {
			le = metrics.PromBoundSeconds(latencyBucketsMs[i])
		}
		hsamples = append(hsamples, metrics.PromSample{Suffix: "_bucket",
			Labels: [][2]string{{"le", le}}, Value: float64(cumulative)})
	}
	hsamples = append(hsamples,
		metrics.PromSample{Suffix: "_sum", Value: time.Duration(m.latency.sumNs.Load()).Seconds()},
		metrics.PromSample{Suffix: "_count", Value: float64(m.latency.count.Load())})
	fams = append(fams, metrics.PromFamily{Name: "pimnetd_request_duration_seconds",
		Help: "Gated execution latency.", Kind: metrics.PromHistogram, Samples: hsamples})

	// Plan cache. Hits are cached results, misses count compiles; a warm
	// restart whose points are all store hits compiles nothing and shows
	// misses == 0. Traced and faulted points bypass the cache.
	cs := s.cache.Stats()
	rate := 0.0
	if total := cs.Hits + cs.Misses; total > 0 {
		rate = float64(cs.Hits) / float64(total)
	}
	fams = append(fams,
		counter("pimnetd_plan_cache_hits_total", "Untraced, fault-free collectives answered from the in-memory cache.", float64(cs.Hits)),
		counter("pimnetd_plan_cache_misses_total", "Untraced, fault-free collectives that compiled a plan.", float64(cs.Misses)),
		gauge("pimnetd_plan_cache_entries", "Cached collective results (traced and faulted requests bypass the cache).", float64(cs.Entries)),
		gauge("pimnetd_plan_cache_hit_rate", "Lifetime plan-cache hit rate (hits over lookups).", rate),
	)

	// Sweep engine aggregate.
	m.sweepMu.Lock()
	agg := report.NewSweepStatsJSON(m.sweepAgg)
	m.sweepMu.Unlock()
	fams = append(fams,
		counter("pimnetd_sweep_points_total", "Grid points resolved (simulated or read from the store) across all sweep runs.", float64(agg.Points)),
		gauge("pimnetd_sweep_plan_cache_hit_rate", "Plan-cache hit rate measured across sweep runs.", agg.CacheHitRate),
	)

	// Persistent store, one family per counter (absent without -store-dir).
	// The store holds results only, but every sample keeps its
	// namespace="results" label: dashboards and scrapers select on it.
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		ns := func(v float64) []metrics.PromSample {
			return []metrics.PromSample{{Labels: [][2]string{{"namespace", "results"}}, Value: v}}
		}
		fams = append(fams,
			counter("pimnetd_store_hits_total", "Store reads answered from disk.", 0, ns(float64(st.Hits))...),
			counter("pimnetd_store_misses_total", "Store reads that fell through to recompute.", 0, ns(float64(st.Misses))...),
			counter("pimnetd_store_writes_total", "Store write-behinds.", 0, ns(float64(st.Writes))...),
			counter("pimnetd_store_evictions_total", "Store entries evicted by capacity.", 0, ns(float64(st.Evictions))...),
			counter("pimnetd_store_corrupt_total", "Store blobs rejected by checksum or codec.", 0, ns(float64(st.Corrupt))...),
			counter("pimnetd_store_divergent_total", "Store writes rejected for diverging from the stored bytes.", 0,
				ns(float64(st.Divergent))...),
			metrics.PromFamily{Name: "pimnetd_store_entries", Help: "Store entries resident, by namespace.",
				Kind: metrics.PromGauge, Samples: ns(float64(st.Entries))},
			metrics.PromFamily{Name: "pimnetd_store_bytes", Help: "Store bytes on disk, by namespace.",
				Kind: metrics.PromGauge, Samples: ns(float64(st.Bytes))},
		)
	}

	// Async jobs: queue depths and per-tenant counters.
	jobs := s.jobs.snapshot()
	fams = append(fams,
		gauge("pimnetd_jobs_queued", "Async jobs waiting in tenant queues.", float64(jobs.Queued)),
		gauge("pimnetd_jobs_running", "Async jobs currently executing.", float64(jobs.Running)),
		gauge("pimnetd_jobs_tracked", "Async jobs tracked (queued, running, and finished within TTL).", float64(jobs.Tracked)),
	)
	pools := make([]string, 0, len(jobs.Tenants))
	for p := range jobs.Tenants {
		pools = append(pools, p)
	}
	sort.Strings(pools)
	var submitted, rejected, finished, queued, running, quota []metrics.PromSample
	for _, p := range pools {
		t := jobs.Tenants[p]
		lbl := [][2]string{{"tenant", p}}
		submitted = append(submitted, metrics.PromSample{Labels: lbl, Value: float64(t.Submitted)})
		rejected = append(rejected, metrics.PromSample{Labels: lbl, Value: float64(t.Rejected)})
		finished = append(finished,
			metrics.PromSample{Labels: [][2]string{{"outcome", "done"}, {"tenant", p}}, Value: float64(t.Done)},
			metrics.PromSample{Labels: [][2]string{{"outcome", "failed"}, {"tenant", p}}, Value: float64(t.Failed)},
			metrics.PromSample{Labels: [][2]string{{"outcome", "interrupted"}, {"tenant", p}}, Value: float64(t.Interrupted)})
		queued = append(queued, metrics.PromSample{Labels: lbl, Value: float64(t.Queued)})
		running = append(running, metrics.PromSample{Labels: lbl, Value: float64(t.Running)})
		quota = append(quota, metrics.PromSample{Labels: lbl, Value: float64(t.Quota)})
	}
	if len(pools) > 0 {
		fams = append(fams,
			counter("pimnetd_tenant_jobs_submitted_total", "Jobs submitted, by tenant pool.", 0, submitted...),
			counter("pimnetd_tenant_jobs_rejected_total", "Jobs rejected by quota or backlog, by tenant pool.", 0, rejected...),
			counter("pimnetd_tenant_jobs_finished_total", "Jobs finished, by tenant pool and outcome.", 0, finished...),
			metrics.PromFamily{Name: "pimnetd_tenant_jobs_queued", Help: "Jobs waiting, by tenant pool.",
				Kind: metrics.PromGauge, Samples: queued},
			metrics.PromFamily{Name: "pimnetd_tenant_jobs_running", Help: "Jobs executing, by tenant pool.",
				Kind: metrics.PromGauge, Samples: running},
			metrics.PromFamily{Name: "pimnetd_tenant_jobs_quota", Help: "Configured concurrent-job quota, by tenant pool.",
				Kind: metrics.PromGauge, Samples: quota},
		)
	}

	if src, ok := s.cfg.Sweeper.(promSource); ok {
		fams = append(fams, src.PromFamilies()...)
	}
	return fams
}
