package pimnet_test

import (
	"strings"
	"testing"

	"pimnet"
	"pimnet/internal/trace"
)

func testSystem(t *testing.T, dpus int) pimnet.System {
	t.Helper()
	sys, err := pimnet.DefaultSystem().WithDPUs(dpus)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewBackendCoversEveryKind(t *testing.T) {
	sys := testSystem(t, 256)
	kinds := pimnet.BackendKinds()
	if len(kinds) != 6 {
		t.Fatalf("BackendKinds returned %d kinds, want 6", len(kinds))
	}
	for _, k := range kinds {
		be, err := pimnet.NewBackend(k, sys)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if be.Name() != k.String() {
			t.Errorf("NewBackend(%v).Name() = %q, want %q", k, be.Name(), k.String())
		}
	}
	if _, err := pimnet.NewBackend(pimnet.BackendKind(99), sys); err == nil {
		t.Error("NewBackend accepted an unknown kind")
	}
}

func TestParseBackendKind(t *testing.T) {
	cases := map[string]pimnet.BackendKind{
		"baseline": pimnet.Baseline, "Baseline": pimnet.Baseline,
		"ideal": pimnet.IdealSoftware, "Software(Ideal)": pimnet.IdealSoftware,
		"ndpbridge": pimnet.NDPBridge, "NDPBridge": pimnet.NDPBridge,
		"dimmlink": pimnet.DIMMLink, "DIMM-Link": pimnet.DIMMLink,
		"pimnet": pimnet.PIMnet, "PIMnet": pimnet.PIMnet,
		"cxlpim": pimnet.CXLPIM, "CXL-PIM": pimnet.CXLPIM, "cxl": pimnet.CXLPIM,
	}
	for in, want := range cases {
		got, err := pimnet.ParseBackendKind(in)
		if err != nil {
			t.Errorf("ParseBackendKind(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBackendKind(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := pimnet.ParseBackendKind("upmem"); err == nil {
		t.Error("ParseBackendKind accepted an unknown name")
	}
}

// TestBackendsErrorNamesKind: a construction failure must say which backend
// kind was being built.
func TestBackendsErrorNamesKind(t *testing.T) {
	var sys pimnet.System // zero value fails validation
	_, err := pimnet.Backends(sys)
	if err == nil {
		t.Fatal("Backends accepted an invalid system")
	}
	if !strings.Contains(err.Error(), "building Baseline backend") {
		t.Errorf("error %q does not name the failing backend kind", err)
	}
}

// TestBackendsForwardsOptions: one option list traces the whole comparison
// set — every backend that runs a collective contributes events.
func TestBackendsForwardsOptions(t *testing.T) {
	sys := testSystem(t, 256)
	rec := pimnet.NewTraceRecorder(0)
	bes, err := pimnet.Backends(sys, pimnet.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	req := pimnet.Request{Pattern: pimnet.AllGather, Op: pimnet.Sum,
		BytesPerNode: 4096, ElemSize: 4, Nodes: 256}
	for _, be := range bes {
		before := rec.Total()
		if _, err := be.Collective(req); err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if rec.Total() == before {
			t.Errorf("%s emitted no trace events", be.Name())
		}
	}
}

// TestWithFallbackNil: explicitly passing a nil fallback makes unrecoverable
// faults hard errors instead of degrading to the host relay.
func TestWithFallbackNil(t *testing.T) {
	sys := testSystem(t, 256)
	spec, err := pimnet.ParseFaultSpec("corrupt=1.0")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 3
	req := pimnet.Request{Pattern: pimnet.AllReduce, Op: pimnet.Sum,
		BytesPerNode: 4096, ElemSize: 4, Nodes: 256}

	withDefault, err := pimnet.NewPIMnet(sys, pimnet.WithFaults(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := withDefault.Collective(req); err != nil {
		t.Fatalf("default fallback should absorb the unrecoverable fault: %v", err)
	}

	noFallback, err := pimnet.NewPIMnet(sys, pimnet.WithFaults(spec), pimnet.WithFallback(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noFallback.Collective(req); err == nil {
		t.Fatal("nil fallback should make the unrecoverable fault a hard error")
	}
}

// TestTracedRecoveryEmitsLadderEvents: an unrecoverable fault under tracing
// surfaces the detection and the recovery decision in the event stream.
func TestTracedRecoveryEmitsLadderEvents(t *testing.T) {
	sys := testSystem(t, 256)
	spec, err := pimnet.ParseFaultSpec("corrupt=1.0")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 5
	rec := pimnet.NewTraceRecorder(0)
	p, err := pimnet.NewPIMnet(sys, pimnet.WithTracer(rec), pimnet.WithFaults(spec))
	if err != nil {
		t.Fatal(err)
	}
	req := pimnet.Request{Pattern: pimnet.AllReduce, Op: pimnet.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: 256}
	if _, err := p.Collective(req); err != nil {
		t.Fatal(err)
	}
	var detected, recovered bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindFaultDetected:
			detected = true
		case trace.KindReroute, trace.KindFallback, trace.KindRetry:
			recovered = true
		}
	}
	if !detected {
		t.Error("no KindFaultDetected event in traced recovery")
	}
	if !recovered {
		t.Error("no recovery event (reroute/fallback/retry) in traced recovery")
	}
}

// TestMachineReportUtil: machine.Run copies the utilization summary into the
// Report for traced backends and leaves it nil otherwise.
func TestMachineReportUtil(t *testing.T) {
	sys := testSystem(t, 256)
	util := pimnet.NewLinkUtil()
	traced, err := pimnet.NewPIMnet(sys, pimnet.WithTracer(util))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := pimnet.NewPIMnet(sys)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := pimnet.EvaluationSuite(256, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	wl := suite[0]
	run := func(be pimnet.Backend) pimnet.Report {
		m, err := pimnet.NewMachine(sys, be)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(wl)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := run(traced); rep.Util == nil {
		t.Error("traced run produced a nil Report.Util")
	} else if len(rep.Util.Tiers) == 0 {
		t.Error("traced Report.Util has no tier rows")
	}
	if rep := run(bare); rep.Util != nil {
		t.Error("untraced run produced a non-nil Report.Util")
	}
}

// TestTraceLevelOptionPhase: the level option propagates through the root
// API — phase level suppresses link events.
func TestTraceLevelOptionPhase(t *testing.T) {
	sys := testSystem(t, 256)
	rec := pimnet.NewTraceRecorder(0)
	p, err := pimnet.NewPIMnet(sys,
		pimnet.WithTracer(rec), pimnet.WithTraceLevel(pimnet.TraceLevelPhase))
	if err != nil {
		t.Fatal(err)
	}
	req := pimnet.Request{Pattern: pimnet.AllReduce, Op: pimnet.Sum,
		BytesPerNode: 4096, ElemSize: 4, Nodes: 256}
	if _, err := p.Collective(req); err != nil {
		t.Fatal(err)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindLinkBusy {
			t.Fatal("TraceLevelPhase leaked a link event through the root API")
		}
	}
	if rec.Total() == 0 {
		t.Fatal("no events at TraceLevelPhase")
	}
}

// TestWithPlanCache: the option shares one compiled-plan cache across
// backends built through NewBackend, for both plan-compiling kinds, so a
// second build of a kind replays the plan the first build compiled.
func TestWithPlanCache(t *testing.T) {
	sys := testSystem(t, 256)
	req := pimnet.Request{Pattern: pimnet.AllReduce, Op: pimnet.Sum,
		BytesPerNode: 4096, ElemSize: 4, Nodes: 256}
	for _, kind := range []pimnet.BackendKind{pimnet.PIMnet, pimnet.CXLPIM} {
		t.Run(kind.String(), func(t *testing.T) {
			cache := pimnet.NewPlanCache()
			var want pimnet.Result
			for i := 0; i < 2; i++ {
				be, err := pimnet.NewBackend(kind, sys, pimnet.WithPlanCache(cache))
				if err != nil {
					t.Fatal(err)
				}
				before := cache.Stats()
				res, err := be.Collective(req)
				if err != nil {
					t.Fatal(err)
				}
				st := cache.Stats().Sub(before)
				if i == 0 {
					if st.Misses == 0 {
						t.Fatalf("first build compiled through no cache: %+v", st)
					}
					want = res
					continue
				}
				if st.Hits == 0 || st.Misses != 0 {
					t.Fatalf("second build: %+v, want hits and no misses", st)
				}
				if res != want {
					t.Fatalf("cached-plan result %+v differs from first build %+v", res, want)
				}
			}
		})
	}
}
