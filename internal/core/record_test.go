package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/faults"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// recordedPlan compiles req on a fresh network of dpus DPUs and executes it
// once, which writes the plan's timing record. It returns the network, the
// plan and the record as written.
func recordedPlan(t *testing.T, dpus int, req collective.Request) (*Network, *Plan, timingRecord) {
	t.Helper()
	n := testNet(t, dpus)
	plan := mustPlan(t, n, req)
	if plan.timing.Load() != nil {
		t.Fatal("a freshly compiled plan already carries a timing record")
	}
	res, err := n.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := plan.timing.Load()
	if rec == nil || rec.res != res {
		t.Fatalf("first Execute stored record %+v, want one holding %v", rec, res)
	}
	return n, plan, *rec
}

// kernel replays p on n through executePhases, which never reads the record.
func kernel(t *testing.T, n *Network, p *Plan) backend.Result {
	t.Helper()
	res, _, _, err := n.executePhases(p, execOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecordedTimingInvalidation: once a plan carries a record, Execute
// replays the plan instead of answering from the record on a network built
// from a system that differs only in the step overhead or in one tier
// bandwidth, and on the recording network once one of its links degrades.
// The record itself stays as written.
func TestRecordedTimingInvalidation(t *testing.T) {
	cases := []struct {
		name string
		// sys changes the recording network's system into the other
		// network's; nil degrades a link of the recording network instead.
		sys func(*config.System)
	}{
		{"step overhead", func(s *config.System) { s.Net.StepOverhead = 1000 }},
		{"bank bandwidth", func(s *config.System) { s.Net.BankChannelBW /= 2 }},
		{"global bandwidth", func(s *config.System) { s.Net.ChipChannelBW /= 2 }},
		{"degraded link", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, plan, written := recordedPlan(t, 256, testReq(collective.AllReduce, 256, 32<<10))
			if c.sys != nil {
				sys := n.Sys
				c.sys(&sys)
				var err error
				if n, err = NewNetwork(sys); err != nil {
					t.Fatal(err)
				}
			} else {
				f := faults.Fault{Class: faults.LinkDegrade, Site: faults.SiteRing, Factor: 0.25}
				if err := n.ApplyFault(f); err != nil {
					t.Fatal(err)
				}
			}
			got, err := n.Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			if want := kernel(t, n, plan); got != want {
				t.Fatalf("Execute = %v, kernel = %v", got, want)
			}
			if got == written.res {
				t.Fatalf("Execute returned the recorded %v under changed conditions", written.res)
			}
			if rec := plan.timing.Load(); *rec != written {
				t.Fatalf("record changed to %+v, want the first %+v", *rec, written)
			}
		})
	}
}

// TestRecordedTimingTracedRun: a traced execution of a recorded plan still
// replays every transfer, so it emits exactly the Chrome trace that
// TestChromeTraceGolden pins, and detaching the tracer serves the record.
func TestRecordedTimingTracedRun(t *testing.T) {
	n, plan, written := recordedPlan(t, 64, testReq(collective.AllReduce, 64, 4096))
	recorded := written.res
	chrome := trace.NewChrome()
	n.SetTracer(chrome, trace.LevelLink)
	got, err := n.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got != recorded {
		t.Fatalf("traced Execute = %v, recorded %v", got, recorded)
	}
	var buf bytes.Buffer
	if _, err := chrome.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chrome_allreduce64.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("traced run of a recorded plan drifted from testdata/chrome_allreduce64.json")
	}
	n.SetTracer(nil, trace.LevelLink)
	if got, err := n.Execute(plan); err != nil || got != recorded {
		t.Fatalf("untraced Execute = %v, %v; want the record %v", got, err, recorded)
	}
}

// TestRerouteClearsRecord: rewriting a plan's transfers around a failed
// ring segment drops the record, so the rewritten plan is replayed and
// recorded afresh.
func TestRerouteClearsRecord(t *testing.T) {
	req := testReq(collective.AllReduce, 256, 32<<10)
	_, plan, _ := recordedPlan(t, 256, req)
	faulted := testNet(t, 256)
	if err := faulted.ApplyFault(faults.Fault{Class: faults.LinkFail, Site: faults.SiteRing}); err != nil {
		t.Fatal(err)
	}
	if err := faulted.rerouteRings(plan); err != nil {
		t.Fatal(err)
	}
	if plan.timing.Load() != nil {
		t.Fatal("rerouteRings kept the record of the plan it rewrote")
	}
	healthy := testNet(t, 256)
	got, err := healthy.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := kernel(t, healthy, plan); got != want {
		t.Fatalf("Execute of the rerouted plan = %v, kernel = %v", got, want)
	}
}

// TestRecordedTimingForeignTopology: a recorded plan still refuses a
// network of another topology.
func TestRecordedTimingForeignTopology(t *testing.T) {
	_, plan, _ := recordedPlan(t, 256, testReq(collective.AllReduce, 256, 32<<10))
	if _, err := testNet(t, 64).Execute(plan); err == nil {
		t.Fatal("recorded 256-DPU plan executed on a 64-DPU network")
	}
}

// FuzzRecordedTiming: on a small network built from a system with an
// arbitrary step overhead and an optional bandwidth rescale, the first
// Execute (which writes the record) and the second (which reads it) both
// equal the kernel's replay on a fresh network built from the same system,
// and the breakdown sums to the latency.
func FuzzRecordedTiming(f *testing.F) {
	f.Add(uint8(collective.AllReduce), uint8(0), uint8(1), uint8(3), uint32(4096), uint32(0), uint8(0), uint8(3))
	f.Add(uint8(collective.AllToAll), uint8(1), uint8(3), uint8(7), uint32(32<<10), uint32(250), uint8(1), uint8(7))
	f.Add(uint8(collective.ReduceScatter), uint8(2), uint8(1), uint8(1), uint32(200<<10), uint32(10000), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, pat, ranks, chips, banks uint8, bytesPerNode, overhead uint32, scaleKind, scale uint8) {
		sys := config.Default()
		sys.Ranks, sys.ChipsPerRank, sys.BanksPerChip = 1+int(ranks%4), 1+int(chips%8), 1+int(banks%8)
		sys.Net.StepOverhead = sim.Time(overhead % 2_000_000)
		factor := float64(1+scale%16) / 4 // 0.25x to 4x
		switch scaleKind % 3 {
		case 1:
			sys.Net.BankChannelBW *= factor
		case 2:
			sys.Net.ChipChannelBW *= factor
			sys.Net.RankBusBW *= factor
		}
		n, err := NewNetwork(sys)
		if err != nil {
			t.Fatal(err)
		}
		req := collective.Request{Pattern: collective.Pattern(pat % 7), Op: collective.Sum,
			BytesPerNode: 4 * (1 + int64(bytesPerNode%(256<<10))), ElemSize: 4, Nodes: n.Topo.Nodes()}
		plan, err := PlanFor(n, req)
		if err != nil {
			t.Skip(err)
		}
		first, err := n.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		if plan.timing.Load() == nil {
			t.Fatal("first Execute on a pristine network wrote no record")
		}
		second, err := n.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewNetwork(sys)
		if err != nil {
			t.Fatal(err)
		}
		want := kernel(t, fresh, plan)
		if first != want || second != want {
			t.Fatalf("%v on %v: first %v, second %v, kernel on a fresh network %v",
				req.Pattern, n.Topo, first, second, want)
		}
		if total := first.Breakdown.Total(); total != first.Time {
			t.Fatalf("breakdown sums to %v, latency %v", total, first.Time)
		}
	})
}
