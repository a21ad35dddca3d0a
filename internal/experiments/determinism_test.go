package experiments

import (
	"sync"
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/core"
	"pimnet/internal/report"
	"pimnet/internal/sweep"
)

// TestExperimentsDeterministicAcrossPools locks the experiment harness to
// the sweep engine's determinism contract at the table level: the rendered
// CSV — the exact artifact a user diffs — must be byte-identical between a
// serial run and parallel pools, with a shared plan cache in play.
func TestExperimentsDeterministicAcrossPools(t *testing.T) {
	type study struct {
		name string
		run  func(opts ...sweep.Option) (*report.Table, error)
	}
	studies := []study{
		{"scaling", func(opts ...sweep.Option) (*report.Table, error) {
			_, tbl, err := CollectiveScaling(collective.AllReduce, collective.Sum,
				[]int{64, 128, 256}, []string{"Baseline", "PIMnet"}, opts...)
			return tbl, err
		}},
		{"a1", func(opts ...sweep.Option) (*report.Table, error) {
			_, tbl, err := AblationFlatVsHierarchical(opts...)
			return tbl, err
		}},
		{"a2", func(opts ...sweep.Option) (*report.Table, error) {
			_, tbl, err := AblationSyncSensitivity(opts...)
			return tbl, err
		}},
		{"a3", func(opts ...sweep.Option) (*report.Table, error) {
			_, tbl, err := AblationWRAMStaging(opts...)
			return tbl, err
		}},
		{"a4", func(opts ...sweep.Option) (*report.Table, error) {
			_, tbl, err := AblationNocParameters(opts...)
			return tbl, err
		}},
		{"fig13", func(opts ...sweep.Option) (*report.Table, error) {
			_, tbl, err := Fig13FlowControl(opts...)
			return tbl, err
		}},
	}
	for _, st := range studies {
		st := st
		t.Run(st.name, func(t *testing.T) {
			render := func(workers int) string {
				tbl, err := st.run(sweep.WithWorkers(workers), sweep.WithCache(core.NewPlanCache()))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return tbl.CSV()
			}
			ref := render(1)
			for _, w := range []int{4, 16} {
				if got := render(w); got != ref {
					t.Fatalf("workers=%d CSV diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
						w, ref, got)
				}
			}
		})
	}
}

// TestSharedSuiteConcurrentFigures runs Fig. 10 and Fig. 11 at once over
// the process-wide suite they share, with parallel pools, and requires the
// same tables as serial runs. Under -race it fails if any run writes to
// the shared phase graphs.
func TestSharedSuiteConcurrentFigures(t *testing.T) {
	render := func(workers int) [2]string {
		var out [2]string
		var errs [2]error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, tbl, err := Fig10Applications(true, sweep.WithWorkers(workers))
			if errs[0] = err; err == nil {
				out[0] = tbl.CSV()
			}
		}()
		go func() {
			defer wg.Done()
			_, tbl, err := Fig11CommBreakdown(true, sweep.WithWorkers(workers))
			if errs[1] = err; err == nil {
				out[1] = tbl.CSV()
			}
		}()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
		return out
	}
	if ref, got := render(1), render(4); got != ref {
		t.Fatalf("concurrent figures diverged:\n--- serial ---\n%v\n--- parallel ---\n%v", ref, got)
	}
}
