package metrics

import (
	"testing"
	"time"
)

// TestSweepStatsMergeFixedSize: a long-lived aggregate that merges many
// sweeps never grows — Merge allocates nothing — and still reports the mean
// and max of every point it has seen.
func TestSweepStatsMergeFixedSize(t *testing.T) {
	var agg SweepStats
	var sum, slowest time.Duration
	points := 0
	for i := 0; i < 1000; i++ {
		var s SweepStats
		for j := 0; j < 3; j++ {
			d := time.Duration((i*7919+j*104729)%100000) * time.Microsecond
			s.PointWall.Add(d)
			s.Points++
			sum += d
			slowest = max(slowest, d)
			points++
		}
		agg.Merge(s)
	}
	if agg.PointWall.Count != points || agg.Points != points {
		t.Fatalf("merged %d points, aggregate counts %d (Points %d)", points, agg.PointWall.Count, agg.Points)
	}
	if got, want := agg.MeanPointWall(), sum/time.Duration(points); got != want {
		t.Errorf("mean point wall %v, want %v", got, want)
	}
	if got := agg.MaxPointWall(); got != slowest {
		t.Errorf("max point wall %v, want %v", got, slowest)
	}
	one := SweepStats{Points: 1, PointWall: WallSummary{Count: 1, Sum: time.Second, Max: time.Second}}
	if allocs := testing.AllocsPerRun(100, func() { agg.Merge(one) }); allocs != 0 {
		t.Fatalf("Merge allocates %v times per call; the aggregate grows", allocs)
	}
	if (SweepStats{}).MeanPointWall() != 0 {
		t.Error("empty stats have a nonzero mean")
	}
}
