package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pimnet"
	"pimnet/internal/collective"
	"pimnet/internal/core"
	"pimnet/internal/machine"
	"pimnet/internal/metrics"
	"pimnet/internal/noc"
	"pimnet/internal/report"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
	"pimnet/internal/workloads"
)

// SimulateRequest is the wire form of POST /v1/simulate: one experiment
// point. Absent fields take the documented defaults, so {"pattern":
// "allreduce"} is a complete request. Unknown fields are rejected (a typoed
// field silently taking a default would corrupt a study).
type SimulateRequest struct {
	// Backend selects the communication substrate: baseline, ideal,
	// ndpbridge, dimmlink, pimnet (default), or cxlpim.
	Backend string `json:"backend,omitempty"`
	// Pattern is the collective pattern (default allreduce). Ignored when
	// Workload is set.
	Pattern string `json:"pattern,omitempty"`
	// Op is the reduction operator: sum (default), min, max, or.
	Op string `json:"op,omitempty"`
	// BytesPerNode is the per-DPU payload (default 32768).
	BytesPerNode int64 `json:"bytes_per_node,omitempty"`
	// ElemSize is the element width in bytes (default 4).
	ElemSize int `json:"elem_size,omitempty"`
	// DPUs is the single-channel DPU population (default 256; power-of-two
	// shapes of the paper's hierarchy).
	DPUs int `json:"dpus,omitempty"`
	// Root is the root node of rooted patterns (broadcast, gather, reduce).
	Root int `json:"root,omitempty"`
	// Workload, when set, runs a named workload (the Table VII suite — BFS,
	// CC, GEMV, MLP, SpMV, EMB, NTT, Join — or the PIMfused fused-layer CNN)
	// instead of a single collective.
	Workload string `json:"workload,omitempty"`
	// Scaled selects reduced workload inputs (default true; workload only).
	Scaled *bool `json:"scaled,omitempty"`
	// Seed selects the workload input generator seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Faults injects a deterministic fault spec into the pimnet backend,
	// e.g. "fail-chip=1,corrupt=0.05".
	Faults string `json:"faults,omitempty"`
	// FaultSeed selects the reproducible fault placement (default 1).
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// StepOverheadPs charges a fixed per-step guard in the compiled
	// schedule (pimnet backend only): it becomes the point system's
	// Net.StepOverhead, and so part of the plan-cache key.
	StepOverheadPs int64 `json:"step_overhead_ps,omitempty"`
	// TraceLevel, when "phase" or "link", runs with a link-utilization
	// aggregator attached and includes its summary in the response.
	TraceLevel string `json:"trace_level,omitempty"`
}

// SimulateResponse is the wire form of a successful simulate execution.
// Every field is a pure function of the normalized request, so identical
// payloads always marshal to byte-identical responses — the property the
// coalescing layer and the shared plan cache rely on.
type SimulateResponse struct {
	// Request echoes the normalized request (defaults applied).
	Request SimulateRequest `json:"request"`
	// Backend is the canonical backend name ("PIMnet", "Baseline", ...).
	Backend string `json:"backend"`
	// PlanKey is the hex digest of the compilation point
	// (core.PlanKey.Digest): the identity under which concurrent duplicates
	// coalesce and plan-cache entries bind.
	PlanKey string `json:"plan_key"`
	// TimePs / Time are the end-to-end simulated latency of a collective
	// run (absent for workload runs, which report through Report).
	TimePs    sim.Time           `json:"time_ps,omitempty"`
	Time      string             `json:"time,omitempty"`
	Breakdown *metrics.Breakdown `json:"breakdown,omitempty"`
	// Faults and Degraded surface the recovery ladder's outcome when a
	// fault model was armed.
	Faults   *metrics.FaultCounters `json:"faults,omitempty"`
	Degraded *bool                  `json:"degraded,omitempty"`
	// Util is the link-utilization summary of a traced run.
	Util *trace.Summary `json:"util,omitempty"`
	// Report is the workload execution report (workload runs only).
	Report *machine.Report `json:"report,omitempty"`
}

// SweepRequest is the wire form of POST /v1/sweep: a batch of collective
// points — the cross product of DPUs x BytesPerNode — fanned onto the
// parallel sweep engine with the shared plan cache.
type SweepRequest struct {
	Backend string `json:"backend,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	Op      string `json:"op,omitempty"`
	// DPUs and BytesPerNode span the sweep grid; both must be non-empty.
	DPUs         []int   `json:"dpus"`
	BytesPerNode []int64 `json:"bytes_per_node"`
	ElemSize     int     `json:"elem_size,omitempty"`
	// Workers bounds this request's worker pool (<=0 or beyond the server's
	// cap selects the server default). Results are identical regardless.
	Workers int `json:"workers,omitempty"`
}

// SweepPoint is one grid point's deterministic result.
type SweepPoint struct {
	DPUs         int               `json:"dpus"`
	BytesPerNode int64             `json:"bytes_per_node"`
	TimePs       sim.Time          `json:"time_ps"`
	Time         string            `json:"time"`
	Breakdown    metrics.Breakdown `json:"breakdown"`
	PlanKey      string            `json:"plan_key"`
}

// SweepResponse is the wire form of a sweep execution. Points are
// deterministic; Stats is wall-clock measurement metadata and varies run to
// run.
type SweepResponse struct {
	Backend string                `json:"backend"`
	Pattern string                `json:"pattern"`
	Points  []SweepPoint          `json:"points"`
	Stats   report.SweepStatsJSON `json:"stats"`
}

// point is the serving tier's one unit of work, fully validated before any
// admission or coalescing decision: a collective, a workload run, or (noc
// set) one cell of a packet-level NoC pattern sweep. Every endpoint decodes
// into a list of points and renders its body from their records.
type point struct {
	kind     pimnet.BackendKind
	sys      pimnet.System
	req      collective.Request // zero when workload or noc is set
	workload string
	scaled   bool
	seed     int64
	faults   string
	seedF    int64
	trace    string
	noc      *noc.PatternPoint
	// planKey is the core.PlanKey digest of a collective or workload point
	// (system x collective request), hashed once at normalization: the
	// point key, the record and the coordinator's placement all name it.
	planKey string
}

// keyTag versions the point identity together with the record encoding, so
// results written under an older encoding are never looked up again.
const keyTag = "point-record/v2"

// key returns the point's one identity: the coalescer's flight key and the
// result store's key. It names every field that can change the result — the
// core.PlanKey digest (system x collective request) plus the fields that
// change the result without changing the plan, or every field of the NoC
// cell by raw value. A workload whose input ignores the seed is keyed under
// seed 0, so requests that differ only in seed share one identity.
func (pt point) key() string {
	h := sha256.New()
	if c := pt.noc; c != nil {
		n := c.Config
		fmt.Fprintf(h, "%s\x00noc\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d",
			keyTag, n.Ranks, n.Chips, n.Banks, n.BufferPackets, n.PacketBytes,
			int(c.Mode), int(c.Pattern), c.BytesPerNode, c.Steps, c.Seed)
	} else {
		seed := pt.seed
		if !workloads.ReadsSeed(pt.workload, pt.scaled) {
			seed = 0
		}
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%t\x00%d\x00%s\x00%d\x00%s", keyTag, pt.planKey,
			pt.kind, pt.workload, pt.scaled, seed, pt.faults, pt.seedF, pt.trace)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decodeJSON decodes one JSON object strictly: unknown fields and trailing
// data are errors, so malformed client payloads fail loudly as 400s instead
// of silently taking defaults.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON object")
	}
	return nil
}

// DecodeSimulateRequest decodes and normalizes one simulate payload. It is
// the single entry point for request validation — the fuzz target drives it
// directly — and must return an error for every malformed shape, never
// panic.
func DecodeSimulateRequest(r io.Reader) (SimulateRequest, point, error) {
	var req SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		return SimulateRequest{}, point{}, err
	}
	return req.normalize()
}

// decodeSimulate is /v1/simulate's decoder: a one-point batch whose render
// step echoes this caller's own normalized request around the point's
// record.
func decodeSimulate(_ *Server, r io.Reader) (*batch, error) {
	echo, pt, err := DecodeSimulateRequest(r)
	if err != nil {
		return nil, err
	}
	return &batch{
		points: []point{pt},
		render: func(recs []record, _ metrics.SweepStats) response {
			rec := recs[0]
			resp := SimulateResponse{Request: echo, Backend: rec.Backend, PlanKey: rec.PlanKey,
				Breakdown: rec.Breakdown, Faults: rec.Faults, Degraded: rec.Degraded, Util: rec.Util, Report: rec.Report}
			if rec.Report == nil {
				resp.TimePs, resp.Time = rec.TimePs, rec.TimePs.String()
			}
			return okResponse(resp)
		},
		fail: func(pe *PointError) response { return errorResponse(http.StatusUnprocessableEntity, pe.Err) },
	}, nil
}

// decodeSweep is /v1/sweep's decoder: the grid's points in row-major order.
// In coordinator mode the configured SweepRunner executes the grid instead,
// taking the normalized request, the grid cells and their plan keys from
// this one expansion. A failing point renders the same 422, carrying
// point_index, either way.
func decodeSweep(s *Server, r io.Reader) (*batch, error) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	req, pts, err := req.normalizeGrid(s.cfg.MaxSweepPoints)
	if err != nil {
		return nil, err
	}
	b := &batch{points: pts, workers: req.Workers, grid: true,
		render: func(recs []record, stats metrics.SweepStats) response {
			return okResponse(SweepResponse{Backend: req.Backend, Pattern: req.Pattern,
				Points: sweepPoints(pts, recs), Stats: report.NewSweepStatsJSON(stats)})
		},
		fail: func(pe *PointError) response { return pointErrorResponse(pe, false) },
	}
	if s.cfg.Sweeper != nil {
		grid := make([]GridPoint, len(pts))
		keys := make([]string, len(pts))
		for i, pt := range pts {
			grid[i] = GridPoint{DPUs: pt.req.Nodes, BytesPerNode: pt.req.BytesPerNode}
			keys[i] = pt.planKey
		}
		b.delegate = func(ctx context.Context) response { return s.executeDelegatedSweep(ctx, req, grid, keys) }
	}
	return b, nil
}

// normalize applies defaults and validates every field, returning the echo
// form (defaults filled in) and the executable point.
func (req SimulateRequest) normalize() (SimulateRequest, point, error) {
	var pt point

	if req.Backend == "" {
		req.Backend = "pimnet"
	}
	kind, err := pimnet.ParseBackendKind(req.Backend)
	if err != nil {
		return req, pt, err
	}
	pt.kind = kind
	req.Backend = strings.ToLower(req.Backend)

	if req.DPUs == 0 {
		req.DPUs = 256
	}
	if req.DPUs < 1 {
		return req, pt, fmt.Errorf("dpus must be >= 1, got %d", req.DPUs)
	}
	sys, err := pimnet.DefaultSystem().WithDPUs(req.DPUs)
	if err != nil {
		return req, pt, err
	}
	pt.sys = sys

	if req.Faults != "" {
		if kind != pimnet.PIMnet {
			return req, pt, fmt.Errorf("faults require backend pimnet, got %q", req.Backend)
		}
		if _, err := pimnet.ParseFaultSpec(req.Faults); err != nil {
			return req, pt, err
		}
		if req.FaultSeed == 0 {
			req.FaultSeed = 1
		}
	} else if req.FaultSeed != 0 {
		return req, pt, errors.New("fault_seed is only meaningful with faults")
	}
	pt.faults, pt.seedF = req.Faults, req.FaultSeed

	if req.StepOverheadPs != 0 {
		if req.StepOverheadPs < 0 {
			return req, pt, fmt.Errorf("step_overhead_ps must be >= 0, got %d", req.StepOverheadPs)
		}
		if kind != pimnet.PIMnet {
			return req, pt, fmt.Errorf("step_overhead_ps applies only to backend pimnet, got %q", req.Backend)
		}
	}
	pt.sys.Net.StepOverhead = sim.Time(req.StepOverheadPs)

	if req.TraceLevel != "" {
		if _, err := pimnet.ParseTraceLevel(req.TraceLevel); err != nil {
			return req, pt, err
		}
		req.TraceLevel = strings.ToLower(req.TraceLevel)
	}
	pt.trace = req.TraceLevel

	if req.Workload != "" {
		if req.Pattern != "" || req.Op != "" || req.BytesPerNode != 0 || req.ElemSize != 0 || req.Root != 0 {
			return req, pt, errors.New("workload runs take no pattern, op, bytes_per_node, elem_size, or root")
		}
		name, ok := workloads.Canonical(req.Workload)
		if !ok {
			return req, pt, fmt.Errorf("unknown workload %q (want a prefix of %s)",
				req.Workload, strings.Join(workloads.Names(), ", "))
		}
		req.Workload = name
		if req.Scaled == nil {
			v := true
			req.Scaled = &v
		}
		if req.Seed == 0 {
			req.Seed = 1
		}
		pt.workload, pt.scaled, pt.seed = name, *req.Scaled, req.Seed
		pt.planKey = core.KeyFor(pt.sys, pt.req).Digest()
		return req, pt, nil
	}
	if req.Scaled != nil || req.Seed != 0 {
		return req, pt, errors.New("scaled and seed are only meaningful with workload")
	}

	if req.Pattern == "" {
		req.Pattern = "allreduce"
	}
	pat, err := collective.ParsePattern(req.Pattern)
	if err != nil {
		return req, pt, err
	}
	req.Pattern = strings.ToLower(req.Pattern)
	if req.Op == "" {
		req.Op = "sum"
	}
	op, err := collective.ParseOp(req.Op)
	if err != nil {
		return req, pt, err
	}
	req.Op = strings.ToLower(req.Op)
	if req.BytesPerNode == 0 {
		req.BytesPerNode = 32 << 10
	}
	if req.ElemSize == 0 {
		req.ElemSize = 4
	}
	pt.req = collective.Request{Pattern: pat, Op: op, BytesPerNode: req.BytesPerNode,
		ElemSize: req.ElemSize, Nodes: req.DPUs, Root: req.Root}
	if err := pt.req.Validate(); err != nil {
		return req, pt, err
	}
	pt.planKey = core.KeyFor(pt.sys, pt.req).Digest()
	return req, pt, nil
}

// normalizeGrid applies defaults, validates the grid, and expands it into
// executable points in row-major order (the order the response preserves).
// It is a sweep's only expansion: in coordinator mode the SweepRunner
// receives its output rather than expanding the grid again.
func (req SweepRequest) normalizeGrid(maxPoints int) (SweepRequest, []point, error) {
	if req.Backend == "" {
		req.Backend = "pimnet"
	}
	if req.Pattern == "" {
		req.Pattern = "allreduce"
	}
	if req.Op == "" {
		req.Op = "sum"
	}
	if req.ElemSize == 0 {
		req.ElemSize = 4
	}
	if len(req.DPUs) == 0 {
		return req, nil, errors.New("dpus must name at least one population")
	}
	if len(req.BytesPerNode) == 0 {
		return req, nil, errors.New("bytes_per_node must name at least one payload size")
	}
	if n := len(req.DPUs) * len(req.BytesPerNode); n > maxPoints {
		return req, nil, fmt.Errorf("sweep grid has %d points, server caps at %d", n, maxPoints)
	}
	points := make([]point, 0, len(req.DPUs)*len(req.BytesPerNode))
	for _, d := range req.DPUs {
		for _, b := range req.BytesPerNode {
			pt, err := normalizeGridPoint(req.Backend, req.Pattern, req.Op, req.ElemSize, d, b)
			if err != nil {
				return req, nil, err
			}
			points = append(points, pt)
		}
	}
	req.Backend = strings.ToLower(req.Backend)
	req.Pattern = strings.ToLower(req.Pattern)
	req.Op = strings.ToLower(req.Op)
	return req, points, nil
}

// normalizeGridPoint validates one grid cell into an executable point.
func normalizeGridPoint(backend, pattern, op string, elemSize, dpus int, bytesPerNode int64) (point, error) {
	if dpus < 1 {
		return point{}, fmt.Errorf("dpus value %d must be >= 1", dpus)
	}
	if bytesPerNode < 1 {
		return point{}, fmt.Errorf("bytes_per_node value %d must be >= 1", bytesPerNode)
	}
	one := SimulateRequest{Backend: backend, Pattern: pattern, Op: op,
		BytesPerNode: bytesPerNode, ElemSize: elemSize, DPUs: dpus}
	_, pt, err := one.normalize()
	if err != nil {
		return point{}, fmt.Errorf("point dpus=%d bytes_per_node=%d: %w", dpus, bytesPerNode, err)
	}
	return pt, nil
}
