package cxlpim

import (
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/metrics"
)

func req(pat collective.Pattern, nodes int) collective.Request {
	return collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: nodes}
}

func mustNew(t *testing.T, sys config.System) *CXLPIM {
	t.Helper()
	c, err := New(sys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewSplitsPopulation(t *testing.T) {
	c := mustNew(t, config.Default()) // 256 DPUs, 4 devices
	if c.devices != 4 || c.perDev != 64 {
		t.Fatalf("got %d devices x %d, want 4 x 64", c.devices, c.perDev)
	}
	intra, err := c.intraRequests(req(collective.AllReduce, 256))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range intra {
		if r.Nodes != 64 {
			t.Fatalf("intra-device request spans %d DPUs, want 64", r.Nodes)
		}
	}
}

func TestNewCapsDevicesAtPopulation(t *testing.T) {
	sys, err := config.Default().WithDPUs(2)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, sys) // 2 DPUs, 4 requested devices -> capped at 2
	if c.devices != 2 || c.perDev != 1 {
		t.Fatalf("got %d devices x %d, want 2 x 1", c.devices, c.perDev)
	}
}

func TestNewRejectsUnevenSplit(t *testing.T) {
	sys := config.Default()
	sys.CXL.Devices = 3 // 256 % 3 != 0
	if _, err := New(sys); err == nil {
		t.Fatal("expected error for uneven device split")
	}
}

func TestNewRejectsBadFabric(t *testing.T) {
	sys := config.Default()
	sys.CXL.LinkBandwidth = -1
	if _, err := New(sys); err == nil {
		t.Fatal("expected error for negative link bandwidth")
	}
}

func TestCollectiveRejectsWrongPopulation(t *testing.T) {
	c := mustNew(t, config.Default())
	if _, err := c.Collective(req(collective.AllReduce, 64)); err == nil {
		t.Fatal("expected population-mismatch error")
	}
}

// TestAllPatterns runs every supported pattern end to end and checks the
// accounting identities: positive latency, breakdown sums to the total, and
// (with more than one device) a non-zero CXL-link share.
func TestAllPatterns(t *testing.T) {
	sys := config.Default()
	c := mustNew(t, sys)
	pats := []collective.Pattern{
		collective.AllReduce, collective.ReduceScatter, collective.AllGather,
		collective.AllToAll, collective.Broadcast, collective.Gather, collective.Reduce,
	}
	for _, pat := range pats {
		r := req(pat, 256)
		if pat == collective.Broadcast || pat == collective.Gather || pat == collective.Reduce {
			r.Root = 70 // device 1, local rank 6: exercises non-zero roots
		}
		res, err := c.Collective(r)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if res.Time <= 0 {
			t.Errorf("%v: non-positive latency %v", pat, res.Time)
		}
		if got := res.Breakdown.Total(); got != res.Time {
			t.Errorf("%v: breakdown total %v != latency %v", pat, got, res.Time)
		}
		if res.Breakdown.Get(metrics.CXLLink) <= 0 {
			t.Errorf("%v: no CXL-link time charged", pat)
		}
	}
}

// TestDeterministic pins the repeatability contract all backends share.
func TestDeterministic(t *testing.T) {
	a, b := mustNew(t, config.Default()), mustNew(t, config.Default())
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllToAll} {
		r1, err := a.Collective(req(pat, 256))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := b.Collective(req(pat, 256))
		if err != nil {
			t.Fatal(err)
		}
		if r1.Time != r2.Time || r1.Breakdown != r2.Breakdown {
			t.Fatalf("%v: results differ across identical backends", pat)
		}
	}
}

// TestSingleDeviceMatchesPIMnet: with the whole population on one device
// there is no fabric phase, so the result must equal the plain PIMnet
// backend's — the intra path is the same compiled-plan machinery.
func TestSingleDeviceMatchesPIMnet(t *testing.T) {
	sys := config.Default()
	sys.CXL.Devices = 1
	c := mustNew(t, sys)
	p, err := core.NewPIMnet(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllGather} {
		got, err := c.Collective(req(pat, 256))
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Collective(req(pat, 256))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: single-device CXL-PIM %v != PIMnet %v", pat, got.Time, want.Time)
		}
	}
}

// TestPlanCacheSharedWithPIMnet proves the compiled-plan reuse is genuine:
// the intra-device plans a CXL-PIM run compiles are served back, as cache
// hits, to a plain PIMnet backend of the device's shape.
func TestPlanCacheSharedWithPIMnet(t *testing.T) {
	cache := core.NewPlanCache()
	c := mustNew(t, config.Default()).WithPlanCache(cache)
	if _, err := c.Collective(req(collective.AllReduce, 256)); err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	if misses == 0 {
		t.Fatal("cxlpim compiled nothing through the cache")
	}

	// Second identical run: every intra plan is a hit.
	if _, err := c.Collective(req(collective.AllReduce, 256)); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != misses {
		t.Fatalf("repeat run compiled again: %+v", s)
	}

	// A PIMnet backend shaped like one device reuses the same entries.
	devSys, err := c.sys.WithDPUs(c.perDev)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPIMnet(devSys)
	if err != nil {
		t.Fatal(err)
	}
	p.WithPlanCache(cache)
	intra, err := c.intraRequests(req(collective.AllReduce, 256))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range intra {
		if _, err := p.Collective(r); err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Misses != misses {
		t.Fatalf("device-shaped PIMnet missed the shared cache: %+v", s)
	}
}

// intraRequests returns the intra-device sub-collectives of req's schedule
// in execution order — the compiled, cacheable part of the backend. Golden
// tests pin their plan digests.
func (c *CXLPIM) intraRequests(req collective.Request) ([]collective.Request, error) {
	if err := c.check(req); err != nil {
		return nil, err
	}
	phases, err := c.decompose(req)
	if err != nil {
		return nil, err
	}
	var out []collective.Request
	for _, ph := range phases {
		if ph.intra != nil {
			out = append(out, *ph.intra)
		}
	}
	return out, nil
}

// TestIntraRequestsValidate: every sub-request the decomposition emits must
// itself be a valid collective (alignment, root range).
func TestIntraRequestsValidate(t *testing.T) {
	c := mustNew(t, config.Default())
	pats := []collective.Pattern{
		collective.AllReduce, collective.ReduceScatter, collective.AllGather,
		collective.AllToAll, collective.Broadcast, collective.Gather, collective.Reduce,
	}
	for _, pat := range pats {
		r := req(pat, 256)
		if pat == collective.Broadcast || pat == collective.Gather || pat == collective.Reduce {
			r.Root = 255
		}
		intra, err := c.intraRequests(r)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if len(intra) == 0 {
			t.Fatalf("%v: no intra phases", pat)
		}
		for _, sub := range intra {
			if err := sub.Validate(); err != nil {
				t.Errorf("%v: invalid intra request %+v: %v", pat, sub, err)
			}
			if sub.Nodes != c.perDev {
				t.Errorf("%v: intra request spans %d nodes, want %d", pat, sub.Nodes, c.perDev)
			}
		}
	}
}

// TestCrossoverDirection pins the shape of the trade-off the backend
// exists to model: against PIMnet, the link-latency tax dominates small
// payloads and the full-duplex per-device links win at large ones — the
// latency ratio must improve monotonically enough to cross.
func TestCrossoverDirection(t *testing.T) {
	sys := config.Default()
	c := mustNew(t, sys)
	p, err := core.NewPIMnet(sys)
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(bytes int64) float64 {
		r := req(collective.AllReduce, 256)
		r.BytesPerNode = bytes
		cr, err := c.Collective(r)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := p.Collective(r)
		if err != nil {
			t.Fatal(err)
		}
		return float64(cr.Time) / float64(pr.Time)
	}
	small, large := ratio(1<<10), ratio(16<<20)
	if small <= large {
		t.Fatalf("CXL-PIM/PIMnet ratio should shrink with payload: %f at 1KiB vs %f at 16MiB", small, large)
	}
}
