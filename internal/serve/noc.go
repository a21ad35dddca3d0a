package serve

import (
	"fmt"
	"io"

	"pimnet/internal/metrics"
	"pimnet/internal/noc"
	"pimnet/internal/report"
	"pimnet/internal/sim"
)

// POST /v1/noc/sweep: the packet-level adversarial pattern sweep as a
// service. The grid is patterns x modes on one network shape; every cell is
// a point of the shared pipeline and a pure function of the request
// (internal/noc's sweep determinism contract), so responses are
// byte-identical regardless of worker count, cells coalesce with identical
// cells of concurrent sweeps, and a store-backed daemon answers repeated
// cells from disk. Requests pass the same admission gate as /v1/sweep — one
// slot per sweep, the inner pool bounded separately by MaxSweepWorkers.

// NocSweepRequest is the wire form of POST /v1/noc/sweep. Absent fields
// take the documented defaults; unknown fields are rejected.
type NocSweepRequest struct {
	// Ranks/Chips/Banks size the simulated channel (default 4x8x80, the
	// full-machine 2560-DPU shape).
	Ranks int `json:"ranks,omitempty"`
	Chips int `json:"chips,omitempty"`
	Banks int `json:"banks,omitempty"`
	// Patterns selects the traffic patterns by name (uniform, hotspot,
	// transpose, tornado, bursty); empty runs all of them.
	Patterns []string `json:"patterns,omitempty"`
	// Modes selects the flow-control policies (credit, static); empty runs
	// both.
	Modes []string `json:"modes,omitempty"`
	// BytesPerNode is each node's per-step payload (default 32768).
	BytesPerNode int64 `json:"bytes_per_node,omitempty"`
	// Steps is the number of scripted pattern rounds (default 2).
	Steps int `json:"steps,omitempty"`
	// Seed feeds the uniform destination stream and the compute-finish skew
	// (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds this request's worker pool (<=0 or beyond the server's
	// cap selects the server default). Results are identical regardless.
	Workers int `json:"workers,omitempty"`
}

// NocSweepPoint is one grid cell's deterministic result.
type NocSweepPoint struct {
	Pattern  string   `json:"pattern"`
	Mode     string   `json:"mode"`
	FinishPs sim.Time `json:"finish_ps"`
	Finish   string   `json:"finish"`
	Packets  int64    `json:"packets"`
	MaxQueue int      `json:"max_queue"`
}

// NocSweepResponse is the wire form of a noc-sweep execution. Points are
// deterministic; Stats is wall-clock measurement metadata.
type NocSweepResponse struct {
	Request NocSweepRequest       `json:"request"`
	Nodes   int                   `json:"nodes"`
	Points  []NocSweepPoint       `json:"points"`
	Stats   report.SweepStatsJSON `json:"stats"`
}

// decodeNocSweep is /v1/noc/sweep's decoder: the patterns x modes grid as
// NoC cell points. The fuzz-safety contract of the other decoders applies:
// every malformed shape is an error, never a panic, and the expanded grid
// is bounded by MaxSweepPoints.
func decodeNocSweep(s *Server, r io.Reader) (*batch, error) {
	var req NocSweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Ranks == 0 && req.Chips == 0 && req.Banks == 0 {
		req.Ranks, req.Chips, req.Banks = 4, 8, 80
	}
	if req.Ranks < 1 || req.Chips < 1 || req.Banks < 1 {
		return nil, fmt.Errorf("topology %dx%dx%d", req.Ranks, req.Chips, req.Banks)
	}
	cfg := noc.DefaultConfig(req.Ranks, req.Chips, req.Banks)
	if cfg.Nodes() < 2 {
		return nil, fmt.Errorf("topology %dx%dx%d has fewer than 2 nodes", req.Ranks, req.Chips, req.Banks)
	}
	if req.BytesPerNode == 0 {
		req.BytesPerNode = 32 << 10
	}
	if req.BytesPerNode < 1 {
		return nil, fmt.Errorf("bytes_per_node %d", req.BytesPerNode)
	}
	if req.Steps == 0 {
		req.Steps = 2
	}
	if req.Steps < 1 {
		return nil, fmt.Errorf("steps %d", req.Steps)
	}
	if req.Seed == 0 {
		req.Seed = 42
	}

	patterns := make([]noc.TrafficPattern, 0, len(req.Patterns))
	if len(req.Patterns) == 0 {
		patterns = noc.TrafficPatterns()
		req.Patterns = make([]string, len(patterns))
		for i, p := range patterns {
			req.Patterns[i] = p.String()
		}
	} else {
		for _, name := range req.Patterns {
			p, err := noc.ParseTrafficPattern(name)
			if err != nil {
				return nil, err
			}
			patterns = append(patterns, p)
		}
	}
	modes := make([]noc.Mode, 0, len(req.Modes))
	if len(req.Modes) == 0 {
		modes = []noc.Mode{noc.CreditBased, noc.StaticScheduled}
		req.Modes = []string{"credit", "static"}
	} else {
		for _, name := range req.Modes {
			m, err := noc.ParseMode(name)
			if err != nil {
				return nil, err
			}
			modes = append(modes, m)
		}
	}

	if grid := len(patterns) * len(modes); grid > s.cfg.MaxSweepPoints {
		return nil, fmt.Errorf("grid of %d points exceeds limit %d", grid, s.cfg.MaxSweepPoints)
	}
	pts := make([]point, 0, len(patterns)*len(modes))
	for _, p := range patterns {
		for _, m := range modes {
			pts = append(pts, point{noc: &noc.PatternPoint{Config: cfg, Mode: m, Pattern: p,
				BytesPerNode: req.BytesPerNode, Steps: req.Steps, Seed: req.Seed}})
		}
	}
	return &batch{points: pts, workers: req.Workers, grid: true,
		render: func(recs []record, stats metrics.SweepStats) response {
			resp := NocSweepResponse{Request: req, Nodes: cfg.Nodes(),
				Points: make([]NocSweepPoint, len(recs)), Stats: report.NewSweepStatsJSON(stats)}
			for i, rec := range recs {
				c := pts[i].noc
				resp.Points[i] = NocSweepPoint{Pattern: c.Pattern.String(), Mode: c.Mode.String(),
					FinishPs: rec.TimePs, Finish: rec.TimePs.String(), Packets: rec.Packets, MaxQueue: rec.MaxQueue}
			}
			return okResponse(resp)
		},
	}, nil
}
