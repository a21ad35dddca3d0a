package core

import (
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/metrics"
	"pimnet/internal/sim"
)

func channel(t *testing.T, dpus int) *PIMnet {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPIMnet(sys)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func req(pat collective.Pattern, bytesPerNode int64, nodes int) collective.Request {
	return collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: bytesPerNode, ElemSize: 4, Nodes: nodes}
}

func TestPlanContentionFree(t *testing.T) {
	p := channel(t, 256)
	patterns := []collective.Pattern{
		collective.ReduceScatter, collective.AllGather, collective.AllReduce,
		collective.AllToAll, collective.Broadcast, collective.Gather, collective.Reduce,
	}
	for _, pat := range patterns {
		plan, err := PlanFor(p.Network(), req(pat, 32<<10, 256))
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if err := plan.CheckContention(); err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if len(plan.Phases) == 0 {
			t.Fatalf("%v: empty plan", pat)
		}
	}
}

func TestPlanScopeMismatch(t *testing.T) {
	p := channel(t, 256)
	if _, err := PlanFor(p.Network(), req(collective.AllReduce, 1024, 128)); err == nil {
		t.Fatal("scope mismatch accepted")
	}
}

func TestPlanRejectsInvalidRequest(t *testing.T) {
	p := channel(t, 8)
	bad := req(collective.AllReduce, 1022, 8) // not a multiple of elem size
	if _, err := PlanFor(p.Network(), bad); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestAllReducePhaseStructure(t *testing.T) {
	p := channel(t, 256)
	plan, err := PlanFor(p.Network(), req(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	// Table V: Ring(bank) -> Ring(chip) -> Broadcast(rank) -> Ring(chip) -> Ring(bank).
	want := []string{"bank-RS", "chip-RS", "rank-bcast-reduce", "chip-AG", "bank-AG"}
	if len(plan.Phases) != len(want) {
		t.Fatalf("phases = %d, want %d", len(plan.Phases), len(want))
	}
	for i, ph := range plan.Phases {
		if ph.Name != want[i] {
			t.Fatalf("phase %d = %q, want %q", i, ph.Name, want[i])
		}
	}
	// Ring phases have N-1 steps; the bus phase has one step per rank.
	if got := len(plan.Phases[0].Steps); got != 7 {
		t.Fatalf("bank-RS steps = %d, want 7", got)
	}
	if got := len(plan.Phases[1].Steps); got != 7 {
		t.Fatalf("chip-RS steps = %d, want 7", got)
	}
	if got := len(plan.Phases[2].Steps); got != 4 {
		t.Fatalf("rank steps = %d, want 4", got)
	}
}

func TestAllReduceDegenerateShapes(t *testing.T) {
	// Single chip: no chip or rank phases. Single bank: nothing at all.
	p8 := channel(t, 8)
	plan, err := PlanFor(p8.Network(), req(collective.AllReduce, 4096, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range plan.Phases {
		if ph.Tier != TierBank {
			t.Fatalf("8-DPU AllReduce uses tier %v", ph.Tier)
		}
	}
	p1 := channel(t, 1)
	plan, err = PlanFor(p1.Network(), req(collective.AllReduce, 4096, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Phases) != 0 {
		t.Fatalf("1-DPU AllReduce has %d phases", len(plan.Phases))
	}
}

func TestAllReduceTierVolumes(t *testing.T) {
	p := channel(t, 256)
	D := int64(32 << 10)
	plan, err := PlanFor(p.Network(), req(collective.AllReduce, D, 256))
	if err != nil {
		t.Fatal(err)
	}
	// Bus volume: one broadcast of D per rank.
	var busBytes int64
	for _, ph := range plan.Phases {
		for _, st := range ph.Steps {
			for _, tr := range st.Transfers {
				if tr.Kind == KindBus {
					busBytes += tr.Bytes
				}
			}
		}
	}
	if busBytes != 4*D {
		t.Fatalf("bus bytes = %d, want %d", busBytes, 4*D)
	}
	// Bank-tier volume: every DPU sends (b-1)/b*D twice (RS + AG):
	// 256 * 2 * 7/8 * 32K = 14 MiB.
	bank := plan.TierBytes(TierBank)
	want := int64(256) * 2 * (D * 7 / 8)
	if bank != want {
		t.Fatalf("bank tier bytes = %d, want %d", bank, want)
	}
}

func TestAllToAllBusVolume(t *testing.T) {
	p := channel(t, 256)
	D := int64(32 << 10) // 128 bytes per destination block
	plan, err := PlanFor(p.Network(), req(collective.AllToAll, D, 256))
	if err != nil {
		t.Fatal(err)
	}
	var busBytes int64
	for _, ph := range plan.Phases {
		for _, st := range ph.Steps {
			for _, tr := range st.Transfers {
				if tr.Kind == KindBus {
					busBytes += tr.Bytes
				}
			}
		}
	}
	// Cross-rank volume: (r-1)/r of the total payload.
	want := int64(256) * D * 3 / 4
	if busBytes != want {
		t.Fatalf("A2A bus bytes = %d, want %d", busBytes, want)
	}
}

func TestExecuteAllReduceBreakdown(t *testing.T) {
	p := channel(t, 256)
	res, err := p.Collective(req(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("zero latency")
	}
	bd := res.Breakdown
	for _, c := range []metrics.Component{metrics.InterBank, metrics.InterChip, metrics.InterRank, metrics.Sync} {
		if bd.Get(c) <= 0 {
			t.Errorf("component %v is zero", c)
		}
	}
	if bd.Get(metrics.HostXfer) != 0 || bd.Get(metrics.Launch) != 0 {
		t.Error("PIMnet charged host components")
	}
	// 32 KB reduces in place and fits the usable scratchpad: no staging.
	if bd.Get(metrics.Mem) != 0 {
		t.Error("32 KB in-place payload should not stage")
	}
	// Oversized payloads must stage from MRAM.
	res2, err := p.Collective(req(collective.AllReduce, 128<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Breakdown.Get(metrics.Mem) == 0 {
		t.Error("128 KB payload should stage through WRAM")
	}
}

func TestAllReduceLatencyBallpark(t *testing.T) {
	// Sanity-check the absolute scale of the model: a 32 KB AllReduce over
	// 256 DPUs should land in the ~60-300us window (Section III analysis),
	// far from both the ns regime and the ms regime of the host baseline.
	p := channel(t, 256)
	res, err := p.Collective(req(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < 30*sim.Microsecond || res.Time > 500*sim.Microsecond {
		t.Fatalf("256-DPU 32KB AllReduce = %v, outside plausible window", res.Time)
	}
}

func TestWeakScalingBandwidthParallelism(t *testing.T) {
	// Weak scaling: per-DPU payload fixed. PIMnet's bank tier runs all
	// chips in parallel, so inter-bank time must stay flat as DPUs grow,
	// and total time must grow sublinearly with population.
	var prev sim.Time
	var bank8 sim.Time
	for _, n := range []int{8, 64, 256} {
		p := channel(t, n)
		res, err := p.Collective(req(collective.AllReduce, 32<<10, n))
		if err != nil {
			t.Fatal(err)
		}
		if n == 8 {
			bank8 = res.Breakdown.Get(metrics.InterBank)
		} else {
			b := res.Breakdown.Get(metrics.InterBank)
			if b > bank8*11/10 {
				t.Fatalf("inter-bank time grew with population: %v at 8 vs %v at %d", bank8, b, n)
			}
		}
		if prev != 0 && res.Time > prev*8 {
			t.Fatalf("AllReduce time grew superlinearly: %v -> %v", prev, res.Time)
		}
		prev = res.Time
	}
}

func TestA2AScalesWithGlobalTraffic(t *testing.T) {
	// All-to-all is dominated by the shared bus; quadrupling the population
	// under weak scaling must grow the time (global traffic grows).
	p64 := channel(t, 64)
	r64, err := p64.Collective(req(collective.AllToAll, 32<<10, 64))
	if err != nil {
		t.Fatal(err)
	}
	p256 := channel(t, 256)
	r256, err := p256.Collective(req(collective.AllToAll, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if r256.Time <= r64.Time {
		t.Fatalf("A2A time should grow with population: %v -> %v", r64.Time, r256.Time)
	}
}

func TestBandwidthSensitivity(t *testing.T) {
	// Fig. 14a: reducing inter-bank bandwidth slows AllReduce but the
	// inter-chip/rank phases are unaffected.
	p := channel(t, 256)
	base, err := p.Collective(req(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	p.Network().ScaleBankBandwidth(0.1 * config.GBps)
	slow, err := p.Collective(req(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Time <= base.Time {
		t.Fatal("reducing bank bandwidth did not slow AllReduce")
	}
	if slow.Breakdown.Get(metrics.InterChip) != base.Breakdown.Get(metrics.InterChip) {
		t.Fatal("bank bandwidth sweep changed inter-chip time")
	}
	// Fig. 14b: scaling global bandwidth up speeds the chip/rank tiers.
	p2 := channel(t, 256)
	p2.Network().ScaleGlobalBandwidth(2)
	fast, err := p2.Collective(req(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Breakdown.Get(metrics.InterChip) >= base.Breakdown.Get(metrics.InterChip) {
		t.Fatal("doubling global bandwidth did not speed inter-chip phase")
	}
}

func TestExecuteRepeatable(t *testing.T) {
	p := channel(t, 64)
	r := req(collective.AllReduce, 16<<10, 64)
	a, err := p.Collective(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Collective(r)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Fatalf("repeat run differs: %v vs %v", a.Time, b.Time)
	}
}

func TestReduceScatterCheaperThanAllReduce(t *testing.T) {
	p := channel(t, 256)
	rs, err := p.Collective(req(collective.ReduceScatter, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := p.Collective(req(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Time >= ar.Time {
		t.Fatalf("RS (%v) should be cheaper than AR (%v)", rs.Time, ar.Time)
	}
}

func TestBroadcastAndFunnels(t *testing.T) {
	p := channel(t, 256)
	bc, err := p.Collective(collective.Request{Pattern: collective.Broadcast,
		BytesPerNode: 16 << 10, ElemSize: 4, Nodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if bc.Time <= 0 {
		t.Fatal("broadcast has zero latency")
	}
	g, err := p.Collective(collective.Request{Pattern: collective.Gather,
		BytesPerNode: 1 << 10, ElemSize: 4, Nodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := p.Collective(collective.Request{Pattern: collective.Reduce,
		Op: collective.Sum, BytesPerNode: 1 << 10, ElemSize: 4, Nodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Time < g.Time {
		t.Fatalf("Reduce (%v) should not be faster than Gather (%v)", rd.Time, g.Time)
	}
	// Broadcast of M bytes is far cheaper than gathering N*M.
	if bc.Time >= g.Time {
		t.Fatalf("broadcast (%v) should beat gather (%v)", bc.Time, g.Time)
	}
}

func TestNetworkValidation(t *testing.T) {
	bad := config.Default()
	bad.Ranks = 0
	if _, err := NewPIMnet(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestContentionCheckerCatchesViolations(t *testing.T) {
	p := channel(t, 256)
	n := p.Network()
	bus := int32(len(n.links) - 1)
	plan := &Plan{Topo: n.Topo, Phases: []Phase{{
		Name: "bogus", Tier: TierRank,
		Steps: []Step{{Transfers: []Transfer{
			{Link: bus, Kind: KindBus, Bytes: 10},
			{Link: bus, Kind: KindBus, Bytes: 10},
		}}},
	}}}
	if err := plan.CheckContention(); err == nil {
		t.Fatal("double-booked bus not caught")
	}
	for _, link := range []int32{-1, bus + 1} {
		plan2 := &Plan{Topo: n.Topo, Phases: []Phase{{
			Name: "bogus", Tier: TierBank,
			Steps: []Step{{Transfers: []Transfer{{Link: link, Bytes: 1}}}},
		}}}
		if err := plan2.CheckContention(); err == nil {
			t.Fatalf("link %d outside the topology not caught", link)
		}
	}
	plan3 := &Plan{Topo: n.Topo, Phases: []Phase{{
		Name: "bogus", Tier: TierBank,
		Steps: []Step{{Transfers: []Transfer{{Link: bus, Kind: KindBus, Bytes: -1}}}},
	}}}
	if err := plan3.CheckContention(); err == nil {
		t.Fatal("negative bytes not caught")
	}
}

func TestSyncLatencyScope(t *testing.T) {
	sys := config.Default()
	full, _ := NewNetwork(sys)
	if full.SyncLatency() != sys.Net.SyncRankLat {
		t.Fatal("multi-rank scope should use rank sync latency")
	}
	oneRank, _ := config.Default().WithDPUs(64)
	nr, _ := NewNetwork(oneRank)
	if nr.SyncLatency() != sys.Net.SyncChipLat {
		t.Fatal("one-rank scope should use chip sync latency")
	}
	oneChip, _ := config.Default().WithDPUs(8)
	nc, _ := NewNetwork(oneChip)
	if nc.SyncLatency() != sys.Net.SyncBankLat {
		t.Fatal("one-chip scope should use bank sync latency")
	}
}
