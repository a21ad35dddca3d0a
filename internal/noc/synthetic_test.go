package noc

import (
	"testing"

	"pimnet/internal/sim"
)

func TestUniformRandomValidation(t *testing.T) {
	cfg := DefaultConfig(2, 2, 4)
	ok := TrafficSpec{Pattern: Uniform, PerNodeBps: 1e6, Duration: sim.Millisecond, Seed: 1}
	zeroRate, zeroDur := ok, ok
	zeroRate.PerNodeBps = 0
	zeroDur.Duration = 0
	if _, err := SimulateTraffic(cfg, zeroRate); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := SimulateTraffic(cfg, zeroDur); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := SimulateTraffic(DefaultConfig(1, 1, 1), ok); err == nil {
		t.Fatal("single-node traffic accepted")
	}
	bad := cfg
	bad.PacketBytes = 0
	if _, err := SimulateTraffic(bad, ok); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	cfg := DefaultConfig(2, 4, 4)
	spec := TrafficSpec{Pattern: Uniform, PerNodeBps: 10e6, Duration: sim.Millisecond, Seed: 9}
	a, err := SimulateTraffic(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTraffic(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatency != b.MeanLatency || a.PacketsDelivered != b.PacketsDelivered {
		t.Fatal("nondeterministic synthetic traffic")
	}
}

func TestUniformRandomDelivery(t *testing.T) {
	cfg := DefaultConfig(2, 4, 4)
	res, err := SimulateTraffic(cfg, TrafficSpec{Pattern: Uniform, PerNodeBps: 10e6,
		Duration: 2 * sim.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("no packets injected")
	}
	// Open-loop run drains fully after injection stops.
	if res.PacketsDelivered != res.Injected {
		t.Fatalf("delivered %d of %d", res.PacketsDelivered, res.Injected)
	}
	if res.MeanLatency <= 0 || res.P99Latency < res.MeanLatency || res.MaxLatency < res.P99Latency {
		t.Fatalf("latency stats inconsistent: mean %v p99 %v max %v",
			res.MeanLatency, res.P99Latency, res.MaxLatency)
	}
}

func TestLoadSweepSaturates(t *testing.T) {
	cfg := DefaultConfig(4, 8, 8)
	rates := []float64{2e6, 10e6, 40e6, 160e6}
	pts, err := LoadSweep(cfg, rates, sim.Millisecond, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(rates) {
		t.Fatal("missing points")
	}
	// Latency must rise with load, dramatically at the top.
	if pts[len(pts)-1].MeanLatency < 5*pts[0].MeanLatency {
		t.Fatalf("no saturation behaviour: %v -> %v",
			pts[0].MeanLatency, pts[len(pts)-1].MeanLatency)
	}
	// Accepted goodput is capped by the shared bus: with uniform traffic
	// ~3/4 of all bytes cross ranks, so per-node acceptance cannot exceed
	// busBW/(0.75*n) plus slack.
	cap := tableIV.bus / (0.75 * float64(cfg.Nodes())) * 1.3
	for _, p := range pts {
		if p.AcceptedBps > cap {
			t.Fatalf("accepted %v exceeds bisection cap %v", p.AcceptedBps, cap)
		}
	}
	sat := SaturationBps(pts)
	if sat <= rates[0] || sat > rates[len(rates)-1] {
		t.Fatalf("saturation estimate %v out of range", sat)
	}
	if SaturationBps(nil) != 0 {
		t.Fatal("empty sweep should report zero")
	}
}
