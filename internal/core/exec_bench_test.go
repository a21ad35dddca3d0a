package core

import (
	"testing"

	"pimnet/internal/collective"
)

// The Execute benchmarks measure the replay kernel alone: the plan is
// compiled once and replayed transfer by transfer through executePhases,
// which is what Execute runs whenever the plan's timing record cannot
// answer. A repeat healthy run is answered from the record;
// BenchmarkRecordedHit2560 times that path. The Execute rows are part of
// the regression-gated suite (make benchcmp): BENCH_baseline.json pins
// their latency and allocs/op.

func benchExecute(b *testing.B, pat collective.Pattern, dpus int) {
	b.Helper()
	n := testNet(b, dpus)
	plan, err := PlanFor(n, testReq(pat, dpus, 32<<10))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := n.executePhases(plan, execOptions{}); err != nil { // warm the scratch buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := n.executePhases(plan, execOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteAllReduce256(b *testing.B) {
	benchExecute(b, collective.AllReduce, 256)
}

func BenchmarkExecuteAllToAll256(b *testing.B) {
	benchExecute(b, collective.AllToAll, 256)
}

func BenchmarkExecuteAllReduce2560(b *testing.B) {
	benchExecute(b, collective.AllReduce, 2560)
}

func BenchmarkExecuteAllToAll2560(b *testing.B) {
	benchExecute(b, collective.AllToAll, 2560)
}

// BenchmarkRecordedHit2560 times Execute answering a repeat healthy run of
// a 2560-DPU All-to-All from the plan's timing record. It is not gated.
func BenchmarkRecordedHit2560(b *testing.B) {
	n := testNet(b, 2560)
	plan, err := PlanFor(n, testReq(collective.AllToAll, 2560, 32<<10))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := n.Execute(plan); err != nil { // writes the record
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecuteSteadyStateZeroAllocs is the executor's allocation contract:
// after one warm-up replay has sized the network's execScratch, the replay
// kernel allocates nothing — the property the benchcmp gate keeps from
// regressing — and neither does Execute answering from the plan's record.
func TestExecuteSteadyStateZeroAllocs(t *testing.T) {
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllToAll} {
		n := testNet(t, 256)
		plan, err := PlanFor(n, testReq(pat, 256, 32<<10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Execute(plan); err != nil { // sizes the scratch, writes the record
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, _, _, err := n.executePhases(plan, execOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("%v: steady-state replay allocates %.1f times, want 0", pat, avg)
		}
		avg = testing.AllocsPerRun(20, func() {
			if _, err := n.Execute(plan); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("%v: Execute of a recorded plan allocates %.1f times, want 0", pat, avg)
		}
	}
}
