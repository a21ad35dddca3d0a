package sim

import "testing"

// The engine benchmarks exercise the two shapes that dominate the
// simulator's event traffic: a broad spread of distinct instants (heap
// reordering) and same-instant bursts (the FIFO tie-break path a lock-step
// schedule produces when a whole step's transfers land together). They are
// part of the regression-gated suite (make benchcmp): BENCH_baseline.json
// pins their latency and allocs/op.

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

func BenchmarkEngineSameInstantBurst(b *testing.B) {
	const n = 4096
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			e.At(100, 0, 0, 0)
		}
		benchDrain(&e)
		e.now = 0
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
