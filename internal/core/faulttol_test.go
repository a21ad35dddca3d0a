package core

import (
	"strings"
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/faults"
	"pimnet/internal/host"
	"pimnet/internal/machine"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
)

func ftSys(t *testing.T, dpus int) config.System {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func ftReq(bytes int64) collective.Request {
	return collective.Request{Pattern: collective.AllReduce, Op: collective.Sum,
		BytesPerNode: bytes, ElemSize: 4, Nodes: 256}
}

func healthyResult(t *testing.T, sys config.System, req collective.Request) sim.Time {
	t.Helper()
	p, err := NewPIMnet(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	return res.Time
}

// faultyPIMnet arms a PIMnet with a hand-built fault list and the baseline
// fallback.
func faultyPIMnet(t *testing.T, sys config.System, m *faults.Model) *PIMnet {
	t.Helper()
	p, err := NewPIMnet(sys)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := host.NewBaseline(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableFaults(m, fb); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRecompileAroundDeadChipPath is the issue's acceptance scenario: one
// hard inter-chip failure on the compiled ring; the AllReduce must complete
// via a recompiled plan, bit-correct, strictly slower than healthy, with the
// detection and recompilation counters incremented.
func TestRecompileAroundDeadChipPath(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(32 << 10)
	healthy := healthyResult(t, sys, req)

	// Stuck pairing 0->1 in rank 3 — an adjacency every compiled chip ring
	// uses, so the pristine plan must time out on it.
	m := &faults.Model{Spec: faults.Spec{Seed: 4}, Faults: []faults.Fault{
		{Class: faults.LinkFail, Site: faults.SiteChipPath, Rank: 3, Chip: 0, Index: 1},
	}}
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= healthy {
		t.Fatalf("recovered latency %v not strictly above healthy %v", res.Time, healthy)
	}
	if got := res.Breakdown.Get(metrics.Recovery); got == 0 {
		t.Fatal("no time charged to the recovery component")
	}
	fc := p.FaultCounters()
	if fc.Detected != 1 || fc.Recompiled != 1 {
		t.Fatalf("counters %v, want detected=1 recompiled=1", fc)
	}
	if fc.Degraded != 0 {
		t.Fatalf("counters %v: recompilation should not count as degradation to fallback", fc)
	}
	if !p.DegradedMode() {
		t.Fatal("backend not reporting degraded mode after recompilation")
	}
	// The recovered schedule must match the data-level interpreter
	// bit-for-bit (faultCollective verified internally; re-check here).
	if err := collective.Verify(req, 4, 8, 8, m.Spec.Seed); err != nil {
		t.Fatalf("interpreter verification: %v", err)
	}

	// The host caches the recompiled route: a second invocation skips
	// detection entirely and — since the reordered ring is a pure
	// relabeling — runs at healthy speed.
	res2, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Time != healthy {
		t.Fatalf("cached recompiled plan ran at %v, want healthy %v", res2.Time, healthy)
	}
	if fc2 := p.FaultCounters(); fc2.Detected != 1 || fc2.Recompiled != 1 {
		t.Fatalf("second invocation re-detected: %v", fc2)
	}
}

// TestRerouteFailedRingSegment: a hard-failed inter-bank ring segment is
// routed the long way around the surviving segments.
func TestRerouteFailedRingSegment(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(32 << 10)
	healthy := healthyResult(t, sys, req)

	m := &faults.Model{Spec: faults.Spec{Seed: 9}, Faults: []faults.Fault{
		{Class: faults.LinkFail, Site: faults.SiteRing, Rank: 0, Chip: 2, Index: 3},
	}}
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= healthy {
		t.Fatalf("rerouted latency %v not above healthy %v", res.Time, healthy)
	}
	fc := p.FaultCounters()
	if fc.Detected != 1 || fc.Recompiled != 1 || fc.Degraded != 0 {
		t.Fatalf("counters %v, want detected=1 recompiled=1 degraded=0", fc)
	}
	// Second invocation rides the cached rerouted plan without detection.
	if _, err := p.Collective(req); err != nil {
		t.Fatal(err)
	}
	if fc2 := p.FaultCounters(); fc2.Detected != 1 {
		t.Fatalf("cached reroute re-detected: %v", fc2)
	}
}

// TestRingDisconnected: two failures in one ring strand banks, so the
// recompiler must fall back to the host relay.
func TestRingDisconnected(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(4 << 10)
	m := &faults.Model{Spec: faults.Spec{Seed: 1}, Faults: []faults.Fault{
		{Class: faults.LinkFail, Site: faults.SiteRing, Rank: 0, Chip: 0, Index: 1},
		{Class: faults.LinkFail, Site: faults.SiteRing, Rank: 0, Chip: 0, Index: 5},
	}}
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	fc := p.FaultCounters()
	if fc.Degraded != 1 {
		t.Fatalf("counters %v, want degraded=1 (host-relay fallback)", fc)
	}
	// The fallback path must show host involvement in the breakdown.
	if res.Breakdown.Get(metrics.HostXfer) == 0 {
		t.Fatalf("fallback breakdown has no host transfer time: %v", res.Breakdown.String())
	}
}

// TestCorruptionRetry: a single transient corruption costs one wasted
// attempt plus backoff, then the retry delivers.
func TestCorruptionRetry(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(8 << 10)
	healthy := healthyResult(t, sys, req)

	m := &faults.Model{Spec: faults.Spec{Seed: 2, CorruptProb: 1}, Faults: []faults.Fault{
		{Class: faults.TransientCorrupt, Prob: 1},
	}}
	m.CorruptFn = func(inv, attempt int) bool { return attempt == 0 }
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= healthy {
		t.Fatalf("retried latency %v not above healthy %v", res.Time, healthy)
	}
	fc := p.FaultCounters()
	if fc.Detected != 1 || fc.Retried != 1 || fc.Recompiled != 0 {
		t.Fatalf("counters %v, want detected=1 retried=1", fc)
	}
}

// TestCorruptionExhaustsRetries: persistent corruption degrades to the
// host-relay fallback after the retry budget.
func TestCorruptionExhaustsRetries(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(4 << 10)
	m := &faults.Model{Spec: faults.Spec{Seed: 3, CorruptProb: 1}, Faults: []faults.Fault{
		{Class: faults.TransientCorrupt, Prob: 1},
	}}
	m.CorruptFn = func(inv, attempt int) bool { return true }
	p := faultyPIMnet(t, sys, m)
	if _, err := p.Collective(req); err != nil {
		t.Fatal(err)
	}
	fc := p.FaultCounters()
	if fc.Degraded != 1 {
		t.Fatalf("counters %v, want degraded=1 after exhausted retries", fc)
	}
	if fc.Retried != maxRetries {
		t.Fatalf("counters %v, want retried=%d", fc, maxRetries)
	}
}

// TestSyncDropRelaunch: a lost READY/START launch is re-launched after the
// watchdog timeout.
func TestSyncDropRelaunch(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(4 << 10)
	healthy := healthyResult(t, sys, req)

	m := &faults.Model{Spec: faults.Spec{Seed: 5, SyncDropProb: 1}, Faults: []faults.Fault{
		{Class: faults.SyncDrop, Prob: 1},
	}}
	m.SyncFn = func(inv, attempt int) bool { return attempt == 0 }
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= healthy {
		t.Fatalf("relaunched latency %v not above healthy %v", res.Time, healthy)
	}
	if fc := p.FaultCounters(); fc.Retried != 1 || fc.Detected != 1 {
		t.Fatalf("counters %v, want detected=1 retried=1", fc)
	}

	// A launch that never lands is a hard error, not an infinite loop.
	m2 := &faults.Model{Spec: faults.Spec{Seed: 5, SyncDropProb: 1}}
	m2.SyncFn = func(inv, attempt int) bool { return true }
	p2 := faultyPIMnet(t, sys, m2)
	if _, err := p2.Collective(req); err == nil {
		t.Fatal("permanently lost launch did not error")
	}
}

// TestDegradedLinkSoftAccept: a badly degraded link trips the watchdog once;
// the runtime then accepts degraded timing without recompiling (the topology
// is still connected) and stops re-detecting.
func TestDegradedLinkSoftAccept(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(32 << 10)
	healthy := healthyResult(t, sys, req)

	m := &faults.Model{Spec: faults.Spec{Seed: 6, DegradedLinks: 1}, Faults: []faults.Fault{
		{Class: faults.LinkDegrade, Site: faults.SiteRing, Rank: 1, Chip: 1, Index: 0, Factor: 0.1},
	}}
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= healthy {
		t.Fatalf("degraded latency %v not above healthy %v", res.Time, healthy)
	}
	fc := p.FaultCounters()
	if fc.Detected != 1 || fc.Degraded != 1 || fc.Recompiled != 0 {
		t.Fatalf("counters %v, want detected=1 degraded=1 recompiled=0", fc)
	}
	if _, err := p.Collective(req); err != nil {
		t.Fatal(err)
	}
	if fc2 := p.FaultCounters(); fc2.Detected != 1 {
		t.Fatalf("soft-accepted network re-detected: %v", fc2)
	}
}

// TestStragglerDetection: an extreme straggler stretches reductions past the
// guard band; the network is connected, so the run is accepted degraded.
func TestStragglerDetection(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(32 << 10)
	healthy := healthyResult(t, sys, req)

	m := &faults.Model{Spec: faults.Spec{Seed: 8, Stragglers: 1, StragglerFactor: 1000},
		Faults: []faults.Fault{{Class: faults.Straggler, Node: 17, Factor: 1000}}}
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= healthy {
		t.Fatalf("straggler latency %v not above healthy %v", res.Time, healthy)
	}
	if fc := p.FaultCounters(); fc.Detected == 0 {
		t.Fatalf("straggler escaped detection: %v", fc)
	}
	if got := p.ComputeSlowdown(); got != 1000 {
		t.Fatalf("ComputeSlowdown = %v, want 1000", got)
	}
}

// TestAllToAllDeadPathFallsBack: AllToAll uses every crossbar pairing, so no
// ring reordering can exclude a stuck one — the ladder must fall back.
func TestAllToAllDeadPathFallsBack(t *testing.T) {
	sys := ftSys(t, 256)
	req := collective.Request{Pattern: collective.AllToAll, Op: collective.Sum,
		BytesPerNode: 8 << 10, ElemSize: 4, Nodes: 256}
	m := &faults.Model{Spec: faults.Spec{Seed: 4}, Faults: []faults.Fault{
		{Class: faults.LinkFail, Site: faults.SiteChipPath, Rank: 3, Chip: 0, Index: 1},
	}}
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	fc := p.FaultCounters()
	if fc.Degraded != 1 || fc.Recompiled != 0 {
		t.Fatalf("counters %v, want degraded=1 recompiled=0", fc)
	}
	if res.Breakdown.Get(metrics.HostXfer) == 0 {
		t.Fatalf("fallback breakdown missing host transfer: %v", res.Breakdown.String())
	}
}

// TestEmptyModelKeepsHealthyTiming: with the fault machinery armed but no
// faults injected, every latency must be identical to the plain backend.
func TestEmptyModelKeepsHealthyTiming(t *testing.T) {
	sys := ftSys(t, 256)
	m := &faults.Model{Spec: faults.Spec{Seed: 1}}
	p := faultyPIMnet(t, sys, m)
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.ReduceScatter,
		collective.AllGather, collective.AllToAll, collective.Broadcast} {
		req := collective.Request{Pattern: pat, Op: collective.Sum,
			BytesPerNode: 16 << 10, ElemSize: 4, Nodes: 256}
		want := healthyResult(t, sys, req)
		res, err := p.Collective(req)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if res.Time != want {
			t.Fatalf("%v: faulted-but-healthy %v != healthy %v", pat, res.Time, want)
		}
	}
	if fc := p.FaultCounters(); fc != (metrics.FaultCounters{}) {
		t.Fatalf("counters nonzero on empty model: %v", fc)
	}
}

// TestChipOrderAvoiding exercises the recompiler's ring-order search.
func TestChipOrderAvoiding(t *testing.T) {
	dead := map[chipPath]bool{{rank: 0, src: 0, dst: 1}: true}
	order, ok := chipOrderAvoiding(8, dead)
	if !ok {
		t.Fatal("no order found around a single dead pairing")
	}
	if len(order) != 8 || order[0] != 0 {
		t.Fatalf("malformed order %v", order)
	}
	seen := make(map[int]bool)
	for i, c := range order {
		if seen[c] {
			t.Fatalf("order %v repeats chip %d", order, c)
		}
		seen[c] = true
		next := order[(i+1)%len(order)]
		if c == 0 && next == 1 {
			t.Fatalf("order %v still uses dead adjacency 0->1", order)
		}
	}

	// chips=2 with a dead pairing: both ring directions are needed, so no
	// order exists.
	if _, ok := chipOrderAvoiding(2, dead); ok {
		t.Fatal("found an order for 2 chips with a dead pairing")
	}

	// Fully dead crossbar: impossible.
	all := make(map[chipPath]bool)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				all[chipPath{0, a, b}] = true
			}
		}
	}
	if _, ok := chipOrderAvoiding(4, all); ok {
		t.Fatal("found an order through a fully dead crossbar")
	}
}

// TestPlanForDegradedDisconnected: unroutable hard faults must error so the
// ladder can fall back.
func TestPlanForDegradedDisconnected(t *testing.T) {
	sys := ftSys(t, 256)
	n, err := NewNetwork(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 4} {
		if err := n.ApplyFault(faults.Fault{Class: faults.LinkFail, Site: faults.SiteRing,
			Rank: 0, Chip: 0, Index: idx}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := PlanForDegraded(n, ftReq(4<<10)); err == nil {
		t.Fatal("disconnected ring recompiled successfully")
	} else if !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestApplyFaultValidation: malformed fault coordinates must be rejected.
func TestApplyFaultValidation(t *testing.T) {
	sys := ftSys(t, 256)
	n, err := NewNetwork(sys)
	if err != nil {
		t.Fatal(err)
	}
	bad := []faults.Fault{
		{Class: faults.LinkFail, Site: faults.SiteRing, Rank: 99, Chip: 0, Index: 0},
		{Class: faults.LinkFail, Site: faults.SiteRing, Rank: 0, Chip: 99, Index: 0},
		{Class: faults.LinkFail, Site: faults.SiteRing, Rank: 0, Chip: 0, Index: 99},
		{Class: faults.LinkFail, Site: faults.SiteChipPath, Rank: 0, Chip: 3, Index: 3},
		{Class: faults.LinkFail, Site: faults.SiteChipPath, Rank: 0, Chip: 0, Index: 99},
		{Class: faults.LinkDegrade, Site: faults.SiteBus, Factor: 1.5},
		{Class: faults.LinkDegrade, Site: faults.SiteBus, Factor: 0},
	}
	for i, f := range bad {
		if err := n.ApplyFault(f); err == nil {
			t.Errorf("bad fault %d (%v) accepted", i, f)
		}
	}
	// Non-network classes are accepted as no-ops.
	if err := n.ApplyFault(faults.Fault{Class: faults.Straggler, Node: 1, Factor: 2}); err != nil {
		t.Fatalf("straggler no-op rejected: %v", err)
	}
	if err := n.ApplyFault(faults.Fault{Class: faults.LinkFail, Site: faults.SiteBus}); err != nil {
		t.Fatal(err)
	}
	if !n.hasHardFaults() {
		t.Fatal("failed bus not reported as hard fault")
	}
}

// TestFaultDeterminism is the regression test from the issue: the same
// workload with the same fault seed, run on two independently constructed
// stacks, must produce byte-identical reports.
func TestFaultDeterminism(t *testing.T) {
	sys := ftSys(t, 256)
	spec := faults.Spec{Seed: 4, FailedChipPaths: 1, DegradedLinks: 2, CorruptProb: 0.3, Stragglers: 1}
	wl := machine.Workload{Name: "fault-determinism", Phases: []machine.Phase{
		{Name: "ar", Collective: &collective.Request{Pattern: collective.AllReduce,
			Op: collective.Sum, BytesPerNode: 16 << 10, ElemSize: 4, Nodes: 256}, Repeat: 2},
		{Name: "ag", Collective: &collective.Request{Pattern: collective.AllGather,
			Op: collective.Sum, BytesPerNode: 8 << 10, ElemSize: 4, Nodes: 256}},
	}}
	runOnce := func() machine.Report {
		t.Helper()
		model, err := faults.New(spec, sys.Ranks, sys.ChipsPerRank, sys.BanksPerChip)
		if err != nil {
			t.Fatal(err)
		}
		p := faultyPIMnet(t, sys, model)
		mach, err := machine.New(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mach.Run(wl)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
	if a.Faults == (metrics.FaultCounters{}) {
		t.Fatalf("fault workload reported no fault activity: %+v", a)
	}
}

// TestTimedFaultActivation: a fault scheduled mid-run (At > 0) fires at a
// step boundary and is detected like a static one.
func TestTimedFaultActivation(t *testing.T) {
	sys := ftSys(t, 256)
	req := ftReq(32 << 10)
	healthy := healthyResult(t, sys, req)

	m := &faults.Model{Spec: faults.Spec{Seed: 11}, Faults: []faults.Fault{
		{Class: faults.LinkFail, Site: faults.SiteRing, Rank: 0, Chip: 0, Index: 0,
			At: healthy / 2},
	}}
	p := faultyPIMnet(t, sys, m)
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= healthy {
		t.Fatalf("mid-run failure latency %v not above healthy %v", res.Time, healthy)
	}
	fc := p.FaultCounters()
	if fc.Detected == 0 || fc.Recompiled == 0 {
		t.Fatalf("timed fault not detected/recompiled: %v", fc)
	}
}
