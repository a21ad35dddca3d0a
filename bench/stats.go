package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between the closest ranks: rank p/100*(n-1) of the sorted
// sample, the definition numpy and most plotting tools use by default. It
// returns NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method): the
// cut points at positions (n+1)*k/4 of the sorted sample, interpolated.
// A metric's run-to-run spread is judged against its bound with this
// definition, so compare reports the same numbers. With fewer than two
// values both quartiles equal the only value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	cut := func(k int) float64 {
		m := float64(len(s)+1) * float64(k) / 4
		j := int(math.Floor(m))
		switch {
		case j < 1:
			j = 1
		case j > len(s)-1:
			j = len(s) - 1
		}
		delta := m - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile distance as a share of the median: the
// run-to-run spread a benchmark metric's bound must cover.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianDuration is the median of ds (0 for an empty slice).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
