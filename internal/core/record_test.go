package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/faults"
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
	written := *rec
	written.durs = slices.Clone(rec.durs)
	return n, plan, written
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

// TestRecordedTimingInvalidation: once a plan carries a record, every
// change to the conditions it was measured under makes Execute replay the
// plan instead, and the record itself stays as written.
func TestRecordedTimingInvalidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*testing.T, *Network)
	}{
		{"step overhead", func(_ *testing.T, n *Network) { n.SetStepOverhead(1000) }},
		{"bank bandwidth", func(_ *testing.T, n *Network) {
			n.ScaleBankBandwidth(n.Sys.Net.BankChannelBW / 2)
		}},
		{"global bandwidth", func(_ *testing.T, n *Network) { n.ScaleGlobalBandwidth(0.5) }},
		{"degraded link", func(t *testing.T, n *Network) {
			f := faults.Fault{Class: faults.LinkDegrade, Site: faults.SiteRing, Factor: 0.25}
			if err := n.ApplyFault(f); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, plan, written := recordedPlan(t, 256, testReq(collective.AllReduce, 256, 32<<10))
			c.mutate(t, n)
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
			// The replays above reused the network's scratch; the record
			// must own its durations.
			if rec := plan.timing.Load(); rec.res != written.res || !slices.Equal(rec.durs, written.durs) {
				t.Fatalf("record changed to %v %v, want the first %v %v", rec.res, rec.durs, written.res, written.durs)
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

// TestPristineLinkTableFollowsSys pins the invariant the record's guard
// rests on: a pristine network's link table is the one NewNetwork builds
// from its n.Sys, also after every bandwidth rescale. A link mutator that
// does not update n.Sys fails here.
func TestPristineLinkTableFollowsSys(t *testing.T) {
	n := testNet(t, 256)
	steps := []struct {
		name  string
		apply func()
	}{
		{"bank x1.5", func() { n.ScaleBankBandwidth(n.Sys.Net.BankChannelBW * 1.5) }},
		{"global x2", func() { n.ScaleGlobalBandwidth(2) }},
		{"global x0.3", func() { n.ScaleGlobalBandwidth(0.3) }},
		{"bank 0.1 GB/s", func() { n.ScaleBankBandwidth(0.1 * config.GBps) }},
	}
	for _, s := range steps {
		s.apply()
		fresh, err := NewNetwork(n.Sys)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(n.links, fresh.links) {
			t.Fatalf("after %s: link table differs from NewNetwork(n.Sys)", s.name)
		}
	}
}

// FuzzRecordedTiming: on a small network with an arbitrary step overhead
// and an optional bandwidth rescale, the first Execute (which writes the
// record) and the second (which reads it) both equal the kernel's replay on
// a fresh network built from the same system, and the breakdown sums to
// the latency.
func FuzzRecordedTiming(f *testing.F) {
	f.Add(uint8(collective.AllReduce), uint8(0), uint8(1), uint8(3), uint32(4096), uint32(0), uint8(0), uint8(3))
	f.Add(uint8(collective.AllToAll), uint8(1), uint8(3), uint8(7), uint32(32<<10), uint32(250), uint8(1), uint8(7))
	f.Add(uint8(collective.ReduceScatter), uint8(2), uint8(1), uint8(1), uint32(200<<10), uint32(10000), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, pat, ranks, chips, banks uint8, bytesPerNode, overhead uint32, scaleKind, scale uint8) {
		sys := config.Default()
		sys.Ranks, sys.ChipsPerRank, sys.BanksPerChip = 1+int(ranks%4), 1+int(chips%8), 1+int(banks%8)
		n, err := NewNetwork(sys)
		if err != nil {
			t.Fatal(err)
		}
		oh := int64(overhead % 2_000_000)
		n.SetStepOverhead(oh)
		factor := float64(1+scale%16) / 4 // 0.25x to 4x
		switch scaleKind % 3 {
		case 1:
			n.ScaleBankBandwidth(n.Sys.Net.BankChannelBW * factor)
		case 2:
			n.ScaleGlobalBandwidth(factor)
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
		fresh, err := NewNetwork(n.Sys)
		if err != nil {
			t.Fatal(err)
		}
		fresh.SetStepOverhead(oh)
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
