package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Errorf("p99 of one value = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread definition a metric's bound is
// judged by (reference values computed with CPython 3).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7.5, 7.1, 7.3, 9.0, 6.9, 7.2, 7.4, 7.0, 7.6, 7.3}, 7.075, 7.525},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	xs := []float64{7.5, 7.1, 7.3, 9.0, 6.9, 7.2, 7.4, 7.0, 7.6, 7.3}
	if got, want := relSpread(xs), (7.525-7.075)/7.3; !near(got, want) {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimes: a span's self time is its duration less the union of its
// children's intervals, clipped to the span; overlapping children count
// once and grandchildren count only against their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past root
		{ID: 5, Parent: 2, Name: "a1", Start: ms(15), End: ms(20)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: ms(100) - ms(50) - ms(10), // a∪b = [10,60], c clipped to [90,100]
		2: ms(30) - ms(5),
		3: ms(30),
		4: ms(30),
		5: ms(5),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	sp := off.start("x", active{}, 1)
	if d := sp.end(); d != 0 || off.snapshot() != nil {
		t.Error("a nil recorder recorded something")
	}
	r := newRecorder()
	root := r.start("root", active{}, 1)
	child := r.start("child", root, 1)
	open := r.start("open", root, 1)
	_ = open
	child.end()
	root.end()
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].Parent != 0 {
		t.Errorf("snapshot %+v: want root and child, open span left out", got)
	}
}
