package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pimnet/internal/metrics"
)

// GridPoint is one (dpus, bytes_per_node) cell of a sweep grid. A sweep's
// grid is the row-major cross product of its DPU populations and payload
// sizes; chunk requests carry explicit point lists so a coordinator can
// slice the grid any way it likes.
type GridPoint struct {
	DPUs         int   `json:"dpus"`
	BytesPerNode int64 `json:"bytes_per_node"`
}

// ChunkRequest is the wire form of POST /v1/chunk: one contiguous slice of
// a sweep grid, dispatched coordinator-to-worker. The endpoint is the
// internal fan-out surface of cluster mode — clients normally use
// /v1/sweep — but it validates as strictly as the public endpoints because
// a coordinator bug must fail loudly, not corrupt a study.
type ChunkRequest struct {
	Backend  string `json:"backend,omitempty"`
	Pattern  string `json:"pattern,omitempty"`
	Op       string `json:"op,omitempty"`
	ElemSize int    `json:"elem_size,omitempty"`
	// Workers bounds this chunk's worker pool exactly like
	// SweepRequest.Workers.
	Workers int `json:"workers,omitempty"`
	// SweepID identifies the parent sweep (trace correlation only; it does
	// not affect execution or results).
	SweepID string `json:"sweep_id,omitempty"`
	// Chunk is the chunk's index within the parent sweep (trace/debugging
	// only).
	Chunk int `json:"chunk,omitempty"`
	// Points is the chunk's grid slice, in the parent sweep's row-major
	// order. Results come back in the same order.
	Points []GridPoint `json:"points"`
}

// ChunkResponse is the wire form of a successful chunk execution: one
// SweepPoint per requested point, in request order. Every field is a pure
// function of the request, so identical chunks always marshal to
// byte-identical responses — the property hedged duplicate dispatches rely
// on.
type ChunkResponse struct {
	Points []SweepPoint `json:"points"`
}

// PointError is a deterministic execution failure of one sweep point. It
// preserves the sweep engine's lowest-index error contract across the
// chunk wire: Index is the point's position (chunk-local on a worker,
// global once a coordinator re-maps it), and Error renders exactly the
// string sweep.Run would have produced.
type PointError struct {
	Index int
	Err   error
}

func (e *PointError) Error() string { return fmt.Sprintf("sweep: point %d: %v", e.Index, e.Err) }

func (e *PointError) Unwrap() error { return e.Err }

// decodeChunk is /v1/chunk's decoder.
func decodeChunk(s *Server, r io.Reader) (*batch, error) {
	var req ChunkRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	return req.batch(s.cfg.MaxSweepPoints)
}

// batch validates every point of the chunk (each takes the simulate
// defaults) and returns its point list in request order. A failure renders
// as the enveloped 422 carrying the chunk-local point_index plus the bare
// (index-free) inner message, so a coordinator can rebuild the global
// lowest-index error the single-node sweep would have reported.
func (req ChunkRequest) batch(maxPoints int) (*batch, error) {
	if len(req.Points) == 0 {
		return nil, errors.New("chunk must name at least one point")
	}
	if len(req.Points) > maxPoints {
		return nil, fmt.Errorf("chunk has %d points, server caps at %d", len(req.Points), maxPoints)
	}
	pts := make([]point, 0, len(req.Points))
	for _, p := range req.Points {
		pt, err := normalizeGridPoint(req.Backend, req.Pattern, req.Op, req.ElemSize, p.DPUs, p.BytesPerNode)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return &batch{points: pts, workers: req.Workers, grid: true,
		render: func(recs []record, _ metrics.SweepStats) response {
			return okResponse(ChunkResponse{Points: sweepPoints(pts, recs)})
		},
		fail: func(pe *PointError) response { return pointErrorResponse(pe, true) },
	}, nil
}

// RunChunk executes one chunk request on the server's sweep engine, result
// store and shared plan cache without passing the admission gate or the
// coalescer: a coordinator running an orphaned chunk locally calls it from
// inside the slot its sweep request already holds (a second acquire there
// would deadlock a saturated daemon). Failures are *PointError with
// chunk-local indices, or the context's error on cancellation.
func (s *Server) RunChunk(ctx context.Context, req ChunkRequest) ([]SweepPoint, error) {
	b, err := req.batch(s.cfg.MaxSweepPoints)
	if err != nil {
		return nil, err
	}
	outs, stats := s.settle(ctx, b, false)
	s.met.mergeSweep(stats)
	recs, cut, pe := collect(outs)
	switch {
	case cut != nil:
		return nil, ctx.Err()
	case pe != nil:
		return nil, pe
	}
	return sweepPoints(b.points, recs), nil
}

// DecodeChunkError parses a worker's enveloped 422 chunk error body back
// into a chunk-local *PointError. It fails when the body lacks a
// point_index (a plain validation envelope, say) — the caller then
// surfaces the raw body instead.
func DecodeChunkError(body []byte) (*PointError, error) {
	var wire errorEnvelope
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, err
	}
	if wire.Error.Message == "" || wire.Error.PointIndex == nil {
		return nil, errors.New("serve: not a structured chunk error")
	}
	return &PointError{Index: *wire.Error.PointIndex, Err: errors.New(wire.Error.Message)}, nil
}
