package machine

import (
	"testing"

	"pimnet/internal/baselines"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/dpu"
	"pimnet/internal/host"
	"pimnet/internal/metrics"
)

func testWorkload(nodes int) Workload {
	return Workload{
		Name: "synthetic",
		Phases: []Phase{
			{
				Name:   "compute+allreduce",
				Kernel: dpu.Kernel{Adds: 100000, Loads: 200000, Stores: 100000},
				Collective: &collective.Request{Pattern: collective.AllReduce,
					Op: collective.Sum, BytesPerNode: 32 << 10, ElemSize: 4, Nodes: nodes},
				Repeat: 3,
			},
		},
	}
}

func machines(t *testing.T, sys config.System) (base, ideal, pim *Machine) {
	t.Helper()
	b, err := host.NewBaseline(sys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := host.NewIdeal(sys)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPIMnet(sys)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(sys, b)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := New(sys, s)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := New(sys, p)
	if err != nil {
		t.Fatal(err)
	}
	return mb, ms, mp
}

func TestRunOrderingAcrossBackends(t *testing.T) {
	sys, _ := config.Default().WithDPUs(256)
	mb, ms, mp := machines(t, sys)
	wl := testWorkload(256)
	rb, err := mb.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ms.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := mp.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	// Identical compute across backends (fairness rule).
	if rb.Breakdown.Get(metrics.Compute) != rp.Breakdown.Get(metrics.Compute) ||
		rs.Breakdown.Get(metrics.Compute) != rp.Breakdown.Get(metrics.Compute) {
		t.Fatal("compute time differs across backends")
	}
	// Paper ordering: Baseline slowest, PIMnet fastest.
	if !(rb.Total > rs.Total && rs.Total > rp.Total) {
		t.Fatalf("ordering violated: B=%v S=%v P=%v", rb.Total, rs.Total, rp.Total)
	}
	if s := Speedup(rb, rp); s < 2 {
		t.Fatalf("PIMnet speedup over baseline = %.2f, expected substantial", s)
	}
}

func TestRepeatScalesLinearly(t *testing.T) {
	sys, _ := config.Default().WithDPUs(64)
	_, _, mp := machines(t, sys)
	one := testWorkload(64)
	one.Phases[0].Repeat = 1
	three := testWorkload(64)
	r1, err := mp.Run(one)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := mp.Run(three)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Total != 3*r1.Total {
		t.Fatalf("repeat=3 gave %v, want 3 x %v", r3.Total, r1.Total)
	}
}

func TestCommFraction(t *testing.T) {
	sys, _ := config.Default().WithDPUs(256)
	mb, _, mp := machines(t, sys)
	wl := testWorkload(256)
	rb, _ := mb.Run(wl)
	rp, _ := mp.Run(wl)
	if rb.CommFraction() <= rp.CommFraction() {
		t.Fatalf("baseline comm fraction (%.2f) should exceed PIMnet's (%.2f)",
			rb.CommFraction(), rp.CommFraction())
	}
	if f := rp.CommFraction(); f < 0 || f > 1 {
		t.Fatalf("comm fraction out of range: %v", f)
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	sys := config.Default()
	nb, err := baselines.NewNDPBridge(sys)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(sys, nb)
	if err != nil {
		t.Fatal(err)
	}
	// NDPBridge cannot run AllReduce workloads.
	if _, err := m.Run(testWorkload(256)); err == nil {
		t.Fatal("expected error from NDPBridge AllReduce")
	}
}

func TestMultiChannelScaling(t *testing.T) {
	// Fig. 16: with more channels, PIMnet's speedup over the baseline grows
	// because cross-channel traffic is reduced channel-wise first.
	speedupAt := func(channels int) float64 {
		sys := config.Default()
		sys.Channels = channels
		b, _ := host.NewBaseline(sys)
		p, _ := core.NewPIMnet(sys)
		mb, _ := New(sys, b)
		mp, _ := New(sys, p)
		wl := testWorkload(256)
		rb, err := mb.RunMultiChannel(wl)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := mp.RunMultiChannel(wl)
		if err != nil {
			t.Fatal(err)
		}
		return Speedup(rb, rp)
	}
	s1 := speedupAt(1)
	s4 := speedupAt(4)
	s8 := speedupAt(8)
	if !(s8 >= s4 && s4 >= s1) {
		t.Fatalf("multi-channel speedup should be nondecreasing: %v %v %v", s1, s4, s8)
	}
}

func TestMultiChannelSingleEqualsRun(t *testing.T) {
	sys, _ := config.Default().WithDPUs(256)
	_, _, mp := machines(t, sys)
	wl := testWorkload(256)
	a, _ := mp.Run(wl)
	b, _ := mp.RunMultiChannel(wl)
	if a.Total != b.Total {
		t.Fatalf("single channel: Run (%v) != RunMultiChannel (%v)", a.Total, b.Total)
	}
}

func TestTenantIsolation(t *testing.T) {
	// Fig. 17: two tenants on disjoint channel halves. On the host path
	// they contend for the CPU link; on PIMnet they only share the bus.
	half, _ := config.Default().WithDPUs(128)
	wl := testWorkload(128)

	bA, _ := host.NewBaseline(half)
	bB, _ := host.NewBaseline(half)
	mbA, _ := New(half, bA)
	mbB, _ := New(half, bB)
	hostRep, err := RunTenants(mbA, mbB, wl, wl)
	if err != nil {
		t.Fatal(err)
	}

	pA, _ := core.NewPIMnet(half)
	pB, _ := core.NewPIMnet(half)
	mpA, _ := New(half, pA)
	mpB, _ := New(half, pB)
	pimRep, err := RunTenants(mpA, mpB, wl, wl)
	if err != nil {
		t.Fatal(err)
	}

	if pimRep.Makespan >= hostRep.Makespan {
		t.Fatalf("PIMnet tenants (%v) should beat host tenants (%v)",
			pimRep.Makespan, hostRep.Makespan)
	}
	// Host tenants suffer: makespan far exceeds a solo run. PIMnet tenants
	// barely interfere (bus share only).
	solo, _ := mpA.Run(wl)
	if pimRep.Makespan > solo.Total*3/2 {
		t.Fatalf("PIMnet tenant interference too high: solo %v, shared %v",
			solo.Total, pimRep.Makespan)
	}
}

func TestNewValidation(t *testing.T) {
	bad := config.Default()
	bad.Ranks = 0
	b, _ := host.NewBaseline(config.Default())
	if _, err := New(bad, b); err == nil {
		t.Fatal("invalid config accepted")
	}
}
