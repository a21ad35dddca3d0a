package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// TestTraceMatchesBreakdown is the reconciliation contract between the two
// observability surfaces: for every tier, the wall-clock the trace's
// aggregator accumulates from phase spans must equal what the Breakdown
// charges to that tier's component — exactly, because both read the same
// phase durations.
func TestTraceMatchesBreakdown(t *testing.T) {
	for _, pat := range []collective.Pattern{
		collective.AllReduce, collective.ReduceScatter, collective.AllToAll,
	} {
		n := testNet(t, 256)
		util := trace.NewUtil()
		n.SetTracer(util, trace.LevelLink)
		plan, err := PlanFor(n, testReq(pat, 256, 32<<10))
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		res, err := n.Execute(plan)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		s := n.UtilSummary()
		if s == nil {
			t.Fatalf("%v: traced network returned nil utilization summary", pat)
		}
		if sim.Time(s.HorizonPs) != res.Time {
			t.Errorf("%v: trace horizon %v != end-to-end latency %v",
				pat, sim.Time(s.HorizonPs), res.Time)
		}
		for _, tu := range s.Tiers {
			want := res.Breakdown.Get(Tier(tu.Tier).Component())
			if sim.Time(tu.PhaseBusyPs) != want {
				t.Errorf("%v: %v phase busy time %v != breakdown component %v",
					pat, tu.Tier, sim.Time(tu.PhaseBusyPs), want)
			}
		}
	}
}

// TestChromeTraceGolden pins the full Chrome export of a link-level traced
// 64-DPU AllReduce. Any change to the executor's emission order, the track
// layout, or the JSON rendering shows up as a diff here; regenerate with
//
//	go test ./internal/core -run TestChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	n := testNet(t, 64)
	chrome := trace.NewChrome()
	n.SetTracer(chrome, trace.LevelLink)
	plan, err := PlanFor(n, testReq(collective.AllReduce, 64, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Execute(plan); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := chrome.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("export fails the Chrome validator: %v", err)
	}
	golden := filepath.Join("testdata", "chrome_allreduce64.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from %s; rerun with -update and review the diff", golden)
	}
}

// TestNilTracerZeroAllocs pins the nil-tracer contract at both evaluated
// scales: with no tracer attached, the trace guards must not add a single
// allocation to the steady-state replay path.
func TestNilTracerZeroAllocs(t *testing.T) {
	for _, dpus := range []int{256, 2560} {
		n := testNet(t, dpus)
		n.SetTracer(nil, trace.LevelLink)
		plan, err := PlanFor(n, testReq(collective.AllReduce, dpus, 32<<10))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := n.executePhases(plan, execOptions{}); err != nil { // warm-up sizes the scratch
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, _, _, err := n.executePhases(plan, execOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("%d DPUs: replay with nil tracer allocates %.1f times, want 0", dpus, avg)
		}
	}
}

// TestTraceLevelPhase suppresses per-transfer link events but keeps the
// phase spans the aggregators and the Breakdown reconciliation need.
func TestTraceLevelPhase(t *testing.T) {
	n := testNet(t, 64)
	rec := trace.NewRecorder(0)
	n.SetTracer(rec, trace.LevelPhase)
	plan, err := PlanFor(n, testReq(collective.AllReduce, 64, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Execute(plan); err != nil {
		t.Fatal(err)
	}
	var links, phases int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindLinkBusy:
			links++
		case trace.KindPhaseEnd:
			phases++
		}
	}
	if links != 0 {
		t.Errorf("LevelPhase emitted %d link events, want 0", links)
	}
	if phases == 0 {
		t.Error("LevelPhase emitted no phase spans")
	}
}

// TestTracedExecutionDeterministic: tracing must observe, not perturb — a
// traced run and an untraced run of the same plan produce identical results,
// and two traced runs produce identical event streams.
func TestTracedExecutionDeterministic(t *testing.T) {
	bare := testNet(t, 256)
	plan, err := PlanFor(bare, testReq(collective.AllToAll, 256, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	want, err := bare.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}

	run := func() ([]trace.Event, sim.Time) {
		n := testNet(t, 256)
		rec := trace.NewRecorder(1 << 16)
		n.SetTracer(rec, trace.LevelLink)
		p, err := PlanFor(n, testReq(collective.AllToAll, 256, 32<<10))
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Events(), res.Time
	}
	ev1, t1 := run()
	ev2, t2 := run()
	if t1 != want.Time || t2 != want.Time {
		t.Fatalf("traced latencies %v/%v differ from untraced %v", t1, t2, want.Time)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
}
