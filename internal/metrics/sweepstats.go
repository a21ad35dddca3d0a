package metrics

import (
	"fmt"
	"time"
)

// SweepStats summarizes the execution of one parallel experiment sweep: how
// many points ran on how many workers, real (wall-clock, not simulated)
// time overall and per point, and how effective the shared compiled-plan
// cache was. Wall times are measurement metadata — they vary run to run and
// are deliberately excluded from the deterministic experiment outputs the
// golden and determinism tests compare.
type SweepStats struct {
	Points  int
	Workers int
	Wall    time.Duration
	// PointWall summarizes the timed points' wall times. It stays one
	// fixed-size value however many sweeps are merged into it.
	PointWall WallSummary
	// Compiled-plan cache effectiveness over the sweep's window.
	CacheHits    uint64
	CacheMisses  uint64
	CacheEntries int
}

// HitRate returns the cache hit fraction (0 when the cache saw no lookups).
func (s SweepStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// WallSummary aggregates wall times as a count, a sum and a maximum.
type WallSummary struct {
	Count    int
	Sum, Max time.Duration
}

// Add records one wall time.
func (w *WallSummary) Add(d time.Duration) {
	w.Count++
	w.Sum += d
	w.Max = max(w.Max, d)
}

// MaxPointWall returns the slowest point's wall time.
func (s SweepStats) MaxPointWall() time.Duration { return s.PointWall.Max }

// MeanPointWall returns the average point wall time.
func (s SweepStats) MeanPointWall() time.Duration {
	if s.PointWall.Count == 0 {
		return 0
	}
	return s.PointWall.Sum / time.Duration(s.PointWall.Count)
}

// Merge folds another sweep's stats into s: points and cache counters add,
// wall times accumulate into fixed-size summaries, and Workers keeps the largest pool seen. Used by
// harnesses that run several sweeps and report one aggregate.
func (s *SweepStats) Merge(other SweepStats) {
	s.Points += other.Points
	if other.Workers > s.Workers {
		s.Workers = other.Workers
	}
	s.Wall += other.Wall
	s.PointWall.Count += other.PointWall.Count
	s.PointWall.Sum += other.PointWall.Sum
	s.PointWall.Max = max(s.PointWall.Max, other.PointWall.Max)
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	if other.CacheEntries > s.CacheEntries {
		s.CacheEntries = other.CacheEntries
	}
}

// String renders a one-line summary.
func (s SweepStats) String() string {
	return fmt.Sprintf("%d points on %d workers in %v (max point %v, cache %d/%d hits)",
		s.Points, s.Workers, s.Wall.Round(time.Microsecond),
		s.MaxPointWall().Round(time.Microsecond), s.CacheHits, s.CacheHits+s.CacheMisses)
}
