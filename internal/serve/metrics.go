package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"pimnet/internal/metrics"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the request
// latency histogram; the final implicit bucket is +Inf.
var latencyBucketsMs = [...]float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// histogram is a fixed-bucket latency histogram with atomic counters.
type histogram struct {
	counts [len(latencyBucketsMs) + 1]atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for ; i < len(latencyBucketsMs); i++ {
		if ms <= latencyBucketsMs[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// serverMetrics aggregates the daemon's observability counters. Everything
// is either atomic or guarded by mu, so handlers update it without
// serializing on each other.
type serverMetrics struct {
	start time.Time

	simulate atomic.Uint64 // /v1/simulate requests
	sweep    atomic.Uint64 // /v1/sweep requests
	nocSweep atomic.Uint64 // /v1/noc/sweep requests (packet-level pattern grid)
	chunk    atomic.Uint64 // /v1/chunk requests (cluster-mode fan-out)
	healthz  atomic.Uint64
	metrics  atomic.Uint64
	// Job API endpoints.
	jobSubmit atomic.Uint64 // POST /v1/jobs
	jobStatus atomic.Uint64 // GET /v1/jobs/{id}
	jobResult atomic.Uint64 // GET /v1/jobs/{id}/result
	jobEvents atomic.Uint64 // GET /v1/jobs/{id}/events (SSE)

	status4xx atomic.Uint64
	status5xx atomic.Uint64
	rejected  atomic.Uint64 // 503s from admission saturation or draining
	coalesced atomic.Uint64 // points served from another request's flight
	inFlight  atomic.Int64  // executions currently holding an admission slot

	latency histogram

	// sweepMu guards sweepAgg: metrics.SweepStats.Merge is not
	// concurrency-safe and multiple sweep requests finish in parallel.
	sweepMu  sync.Mutex
	sweepAgg metrics.SweepStats
}

// mergeSweep folds one sweep run's stats into the process aggregate.
func (m *serverMetrics) mergeSweep(s metrics.SweepStats) {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()
	m.sweepAgg.Merge(s)
}

// recordStatus tallies a response's status class.
func (m *serverMetrics) recordStatus(status int) {
	switch {
	case status >= 500:
		m.status5xx.Add(1)
	case status >= 400:
		m.status4xx.Add(1)
	}
}
