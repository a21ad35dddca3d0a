package noc

import (
	"testing"

	"pimnet/internal/sim"
)

// The NoC regression-gated benchmarks (make benchcmp matches BenchmarkNoc).
// The collective benchmarks drive the full serve/forward/depart chain with
// backpressure at the paper's single-channel scale; the transpose benchmark
// is one cell of the 2560-DPU adversarial sweep at full-machine scale, whose
// thousands of pending events make it the engine's deepest queue.

func benchCollective(b *testing.B, run func(Config, Mode, []sim.Time, int64) (Result, error), mode Mode) {
	b.Helper()
	cfg := DefaultConfig(4, 8, 8)
	done := SkewedFinishTimes(cfg.Nodes(), 100*sim.Microsecond, 20*sim.Microsecond, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg, mode, done, 32<<10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNocAllToAll256(b *testing.B) {
	benchCollective(b, SimulateAllToAll, CreditBased)
}

func BenchmarkNocAllReduce256(b *testing.B) {
	benchCollective(b, SimulateAllReduce, CreditBased)
}

// BenchmarkNocTranspose2560 runs the credit-mode transpose cell of
// pimnetbench -fig noc: 2560 DPUs, 32 KiB per node, two steps, seed 42.
func BenchmarkNocTranspose2560(b *testing.B) {
	p := PatternPoint{Config: DefaultConfig(4, 8, 80), Mode: CreditBased, Pattern: Transpose,
		BytesPerNode: 32 << 10, Steps: 2, Seed: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.run(); err != nil {
			b.Fatal(err)
		}
	}
}
