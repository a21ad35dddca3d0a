package cluster

import (
	"sync/atomic"

	"pimnet/internal/metrics"
)

// Metrics aggregates the coordinator's dispatch and fleet-health counters.
// Everything is atomic; PromFamilies renders them as the pimnetd_cluster_*
// families of the serving tier's GET /metrics.
type Metrics struct {
	sweeps       atomic.Uint64 // distributed sweeps started
	chunks       atomic.Uint64 // chunks dispatched (first attempts)
	retries      atomic.Uint64 // chunk re-dispatches after a failed attempt
	hedges       atomic.Uint64 // hedged duplicate dispatches of stragglers
	localRuns    atomic.Uint64 // chunks degraded to local execution
	dispatchErrs atomic.Uint64 // individual dispatch attempts that failed

	probes        atomic.Uint64
	probeFailures atomic.Uint64
	ejections     atomic.Uint64
	readmissions  atomic.Uint64
}

// WorkerStatus is one worker's health snapshot.
type WorkerStatus struct {
	Addr                string
	State               string
	ConsecutiveFailures int
}

// Snapshot is a point-in-time copy of the coordinator's counters.
type Snapshot struct {
	Workers        []WorkerStatus
	HealthyWorkers int

	Sweeps         uint64
	Chunks         uint64
	ChunkRetries   uint64
	ChunkHedges    uint64
	ChunkLocalRuns uint64
	DispatchErrors uint64

	Probes        uint64
	ProbeFailures uint64
	Ejections     uint64
	Readmissions  uint64
}

// MetricsSnapshot renders the coordinator's current counters and per-worker
// health.
func (c *Coordinator) MetricsSnapshot() Snapshot {
	s := Snapshot{
		Sweeps:         c.met.sweeps.Load(),
		Chunks:         c.met.chunks.Load(),
		ChunkRetries:   c.met.retries.Load(),
		ChunkHedges:    c.met.hedges.Load(),
		ChunkLocalRuns: c.met.localRuns.Load(),
		DispatchErrors: c.met.dispatchErrs.Load(),
		Probes:         c.met.probes.Load(),
		ProbeFailures:  c.met.probeFailures.Load(),
		Ejections:      c.met.ejections.Load(),
		Readmissions:   c.met.readmissions.Load(),
	}
	for _, w := range c.reg.workers {
		w.mu.Lock()
		st := WorkerStatus{Addr: w.addr, State: w.state.String(), ConsecutiveFailures: w.consecFails}
		healthy := w.state == StateHealthy
		w.mu.Unlock()
		s.Workers = append(s.Workers, st)
		if healthy {
			s.HealthyWorkers++
		}
	}
	return s
}

// PromFamilies renders the coordinator's counters and per-worker health as
// Prometheus families. The serving tier appends them to GET /metrics when
// the coordinator is its Sweeper.
func (c *Coordinator) PromFamilies() []metrics.PromFamily {
	s := c.MetricsSnapshot()
	counter := func(name, help string, v uint64) metrics.PromFamily {
		return metrics.PromFamily{Name: name, Help: help, Kind: metrics.PromCounter,
			Samples: []metrics.PromSample{{Value: float64(v)}}}
	}
	var state, fails []metrics.PromSample
	for _, w := range s.Workers {
		state = append(state, metrics.PromSample{Labels: [][2]string{{"state", w.State}, {"worker", w.Addr}}, Value: 1})
		fails = append(fails, metrics.PromSample{Labels: [][2]string{{"worker", w.Addr}}, Value: float64(w.ConsecutiveFailures)})
	}
	fams := []metrics.PromFamily{
		{Name: "pimnetd_cluster_healthy_workers", Help: "Workers currently receiving chunk dispatches.",
			Kind: metrics.PromGauge, Samples: []metrics.PromSample{{Value: float64(s.HealthyWorkers)}}},
		counter("pimnetd_cluster_sweeps_total", "Distributed sweeps started.", s.Sweeps),
		counter("pimnetd_cluster_chunks_total", "Chunks dispatched (first attempts).", s.Chunks),
		counter("pimnetd_cluster_chunk_retries_total", "Chunk re-dispatches after a failed attempt.", s.ChunkRetries),
		counter("pimnetd_cluster_chunk_hedges_total", "Hedged duplicate dispatches of straggling chunks.", s.ChunkHedges),
		counter("pimnetd_cluster_chunk_local_runs_total", "Chunks degraded to local execution.", s.ChunkLocalRuns),
		counter("pimnetd_cluster_dispatch_errors_total", "Chunk dispatch attempts that failed.", s.DispatchErrors),
		counter("pimnetd_cluster_probes_total", "Worker health probes sent.", s.Probes),
		counter("pimnetd_cluster_probe_failures_total", "Worker health probes that failed.", s.ProbeFailures),
		counter("pimnetd_cluster_ejections_total", "Workers ejected from placement.", s.Ejections),
		counter("pimnetd_cluster_readmissions_total", "Ejected workers readmitted.", s.Readmissions),
	}
	if len(state) > 0 {
		fams = append(fams,
			metrics.PromFamily{Name: "pimnetd_cluster_worker_state", Help: "Each worker's health state (1 on its current state).",
				Kind: metrics.PromGauge, Samples: state},
			metrics.PromFamily{Name: "pimnetd_cluster_worker_consecutive_failures", Help: "Consecutive failed probes or dispatches, by worker.",
				Kind: metrics.PromGauge, Samples: fails},
		)
	}
	return fams
}
