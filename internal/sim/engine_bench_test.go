package sim

import "testing"

// The engine benchmarks exercise the shapes that dominate the simulator's
// event traffic: a broad spread of distinct instants (heap reordering),
// same-instant bursts (the FIFO tie-break path a lock-step schedule
// produces when a whole step's transfers land together) and a deep pending
// set fed at a few constant delays (the lanes a packet simulation fills
// with wire and service delays). They are part of the regression-gated
// suite (make benchcmp): BENCH_baseline.json pins their latency and
// allocs/op.

// benchTimes returns a deterministic pseudorandom schedule of n instants
// (xorshift; no math/rand so the stream is fixed forever).
func benchTimes(n int) []Time {
	ts := make([]Time, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range ts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ts[i] = Time(x % 1_000_000)
	}
	return ts
}

// benchDrain pops every pending event without dispatching it.
func benchDrain(e *Engine) {
	for _, ok := e.Next(); ok; _, ok = e.Next() {
	}
}

func BenchmarkEngineScheduleHeavy(b *testing.B) {
	const n = 4096
	ts := benchTimes(n)
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range ts {
			e.At(t, 0, 0, 0)
		}
		benchDrain(&e)
		e.now = 0 // reuse the warm engine; capacity stays allocated
	}
}

// BenchmarkEngineSameInstantBurst pushes a burst at the current instant, so
// every event takes the same-instant FIFO; the clock never moves.
func BenchmarkEngineSameInstantBurst(b *testing.B) {
	const n = 4096
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			e.At(e.Now(), 0, 0, 0)
		}
		benchDrain(&e)
	}
}

// BenchmarkEngineNestedReschedule measures the steady-state interleaving of
// pops and pushes: every event schedules its successor, so the queue stays
// one entry deep while churning through many events.
func BenchmarkEngineNestedReschedule(b *testing.B) {
	const n = 4096
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(0, 0, n, 0)
		for ev, ok := e.Next(); ok; ev, ok = e.Next() {
			if ev.A > 1 {
				e.At(e.Now()+10, 0, ev.A-1, 0)
			}
		}
		e.now = 0
	}
}

// BenchmarkEngineFewDelays measures a packet simulation's shape at full
// machine scale: ~5,000 pending events, every pop scheduling its successor
// at one of five constant delays.
func BenchmarkEngineFewDelays(b *testing.B) {
	const pending, n = 5000, 4096
	delays := [...]Time{250, 1_000, 4_096, 8_192, 20_000}
	var e Engine
	k := 0
	churn := func() {
		e.Next()
		e.At(e.Now()+delays[k], 0, 0, 0)
		if k++; k == len(delays) {
			k = 0
		}
	}
	for i := 0; i < pending; i++ {
		e.At(delays[i%len(delays)], 0, 0, 0)
	}
	for i := 0; i < 4*pending; i++ { // spread the instants, grow the lanes
		churn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			churn()
		}
	}
}
