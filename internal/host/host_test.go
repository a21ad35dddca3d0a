package host

import (
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/metrics"
)

func request(pat collective.Pattern, bytes int64, nodes int) collective.Request {
	return collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: bytes, ElemSize: 4, Nodes: nodes}
}

func TestBaselineChargesOverheads(t *testing.T) {
	b, err := NewBaseline(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Collective(request(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd.Get(metrics.Launch) == 0 {
		t.Error("baseline must charge launch overhead")
	}
	if bd.Get(metrics.HostXfer) == 0 {
		t.Error("baseline must charge host transfers")
	}
	if bd.Get(metrics.HostCompute) == 0 {
		t.Error("baseline AllReduce must charge host reduction")
	}
	if bd.Get(metrics.InterBank) != 0 || bd.Get(metrics.InterChip) != 0 {
		t.Error("host path must not touch PIMnet tiers")
	}
	if res.Time != bd.Total() {
		t.Errorf("time %v != breakdown total %v", res.Time, bd.Total())
	}
}

func TestIdealRemovesOverheads(t *testing.T) {
	s, err := NewIdeal(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Software(Ideal)" {
		t.Fatal("ideal identity wrong")
	}
	res, err := s.Collective(request(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd.Get(metrics.Launch) != 0 || bd.Get(metrics.HostCompute) != 0 {
		t.Error("ideal path must not charge host overheads")
	}
	if bd.Get(metrics.HostXfer) == 0 {
		t.Error("ideal path still moves data through the channel")
	}
}

func TestIdealFasterThanBaseline(t *testing.T) {
	sys := config.Default()
	b, _ := NewBaseline(sys)
	s, _ := NewIdeal(sys)
	for _, pat := range []collective.Pattern{
		collective.ReduceScatter, collective.AllGather, collective.AllReduce,
		collective.AllToAll, collective.Broadcast, collective.Gather, collective.Reduce,
	} {
		req := request(pat, 32<<10, 256)
		rb, err := b.Collective(req)
		if err != nil {
			t.Fatalf("%v baseline: %v", pat, err)
		}
		rs, err := s.Collective(req)
		if err != nil {
			t.Fatalf("%v ideal: %v", pat, err)
		}
		if rs.Time >= rb.Time {
			t.Errorf("%v: ideal (%v) not faster than baseline (%v)", pat, rs.Time, rb.Time)
		}
	}
}

func TestBaselineScalesWithPopulation(t *testing.T) {
	// Weak scaling: doubling the population roughly doubles gathered bytes,
	// so baseline AllReduce time must grow.
	b, _ := NewBaseline(config.Default())
	r64, err := b.Collective(request(collective.AllReduce, 32<<10, 64))
	if err != nil {
		t.Fatal(err)
	}
	r256, err := b.Collective(request(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if r256.Time < r64.Time*3 {
		t.Fatalf("baseline should scale ~linearly: %v at 64 vs %v at 256", r64.Time, r256.Time)
	}
}

func TestBroadcastUsesBroadcastRate(t *testing.T) {
	// Broadcast moves only the message once, so it must be far cheaper
	// than AllGather of the same per-node payload.
	b, _ := NewBaseline(config.Default())
	bc, err := b.Collective(collective.Request{Pattern: collective.Broadcast,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := b.Collective(request(collective.AllGather, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if bc.Time >= ag.Time {
		t.Fatalf("broadcast (%v) should beat all-gather (%v)", bc.Time, ag.Time)
	}
}

func TestScopeChecks(t *testing.T) {
	b, _ := NewBaseline(config.Default())
	if _, err := b.Collective(request(collective.AllReduce, 1024, 512)); err == nil {
		t.Fatal("oversized scope accepted")
	}
	if _, err := b.Collective(request(collective.AllReduce, 1023, 16)); err == nil {
		t.Fatal("invalid request accepted")
	}
	bad := config.Default()
	bad.Ranks = 0
	if _, err := NewBaseline(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewIdeal(bad); err == nil {
		t.Fatal("invalid config accepted by ideal")
	}
}

func TestSubChannelScope(t *testing.T) {
	// Collectives over part of a channel (e.g. one rank) are legal on the
	// host path and cheaper than full-channel ones.
	b, _ := NewBaseline(config.Default())
	small, err := b.Collective(request(collective.AllReduce, 32<<10, 64))
	if err != nil {
		t.Fatal(err)
	}
	full, err := b.Collective(request(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if small.Time >= full.Time {
		t.Fatal("one-rank scope should be cheaper than full channel")
	}
}
