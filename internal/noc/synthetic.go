package noc

import (
	"fmt"
	"math/rand"
	"slices"

	"pimnet/internal/sim"
)

// Synthetic open-loop traffic evaluation — the standard NoC-simulator
// methodology (offered load vs latency, as in Booksim): every node injects
// fixed-size packets at a configured rate toward pattern-selected
// destinations, and the network's accepted throughput and packet latency
// are measured. PIMnet itself never runs random traffic (its collectives
// are compiled), but this characterizes the fabric the credit-based
// alternative would have to provision: where the rings, the crossbar
// ports, and the bus saturate — and, with the adversarial patterns, how
// badly a worst-case spatial distribution degrades it.

// TrafficResult extends Result with latency statistics.
type TrafficResult struct {
	Result
	OfferedBps  float64  // per-node offered injection rate
	AcceptedBps float64  // per-node delivered goodput over the run
	Injected    int64    // packets generated
	MeanLatency sim.Time // injection-to-delivery, mean
	P99Latency  sim.Time
	MaxLatency  sim.Time
}

// TrafficSpec parameterizes one open-loop traffic run.
type TrafficSpec struct {
	Pattern    TrafficPattern
	PerNodeBps float64  // offered injection rate per node, bytes/second
	Duration   sim.Time // injection window (the network then drains)
	Seed       int64
}

// trafDriver generates open-loop traffic on the packet network.
type trafDriver struct {
	pattern  TrafficPattern
	rng      *rand.Rand
	n        int
	duration sim.Time
	interval sim.Time
	bytes    int64

	// pattern parameters, precomputed by newTrafDriver
	hot         int // hotspot target
	tornadoOff  int
	transposeA  int // n = transposeA x transposeB, a <= sqrt(n)
	transposeB  int
	burstWindow sim.Time

	latencies []sim.Time
	injected  int64
}

func newTrafDriver(cfg Config, spec TrafficSpec, interval sim.Time) *trafDriver {
	n := cfg.Nodes()
	d := &trafDriver{
		pattern:  spec.Pattern,
		rng:      rand.New(rand.NewSource(spec.Seed)),
		n:        n,
		duration: spec.Duration,
		interval: interval,
		bytes:    cfg.PacketBytes,

		hot:         n / 2,
		tornadoOff:  (n+1)/2 - 1,
		burstWindow: 64 * interval,
	}
	d.transposeA, d.transposeB = transposeFactors(n)
	// Size the latency log for the run up front: at most one packet per node
	// per interval over the injection window.
	d.latencies = make([]sim.Time, 0, int64(n)*(int64(spec.Duration)/int64(interval)+1))
	return d
}

// tick fires once per injection interval per source node.
func (d *trafDriver) tick(nw *network, src int32, now sim.Time) {
	if now >= d.duration {
		return
	}
	if d.pattern == BurstyTenants && !d.burstOn(int(src), now) {
		// Off-window tenants stay silent; the generator keeps ticking so the
		// tenant resumes at full rate when its burst window opens.
		nw.eng.At(now+d.interval, evTick, src, 0)
		return
	}
	dst := d.dest(int(src))
	born := now
	d.injected++
	nw.uidNext++
	off, plen := nw.f.path(int(src), dst)
	p := nw.allocPacket(packet{bytes: d.bytes, born: born, uid: nw.uidNext, pathOff: off, pathLen: plen, msg: nilIdx})
	nw.inject(p, born)
	nw.eng.At(now+d.interval, evTick, src, 0)
}

// delivered records one packet's injection-to-delivery latency.
func (d *trafDriver) delivered(born, t sim.Time) {
	d.latencies = append(d.latencies, t-born)
}

// SimulateTraffic drives the network with pattern-shaped open-loop traffic
// at the given per-node offered rate for the given simulated duration and
// returns throughput/latency statistics.
func SimulateTraffic(cfg Config, spec TrafficSpec) (TrafficResult, error) {
	if err := cfg.validate(); err != nil {
		return TrafficResult{}, err
	}
	if err := spec.Pattern.validate(); err != nil {
		return TrafficResult{}, err
	}
	if spec.PerNodeBps <= 0 || spec.Duration <= 0 {
		return TrafficResult{}, fmt.Errorf("noc: offered rate %v, duration %v", spec.PerNodeBps, spec.Duration)
	}
	n := cfg.Nodes()
	if n < 2 {
		return TrafficResult{}, fmt.Errorf("noc: uniform traffic needs >= 2 nodes")
	}
	f := buildFabric(cfg)
	nw := newNetwork(f, cfg)
	nw.deliverHook = deliverObserver
	interval := sim.TransferTime(cfg.PacketBytes, spec.PerNodeBps)
	if interval <= 0 {
		interval = 1
	}
	d := newTrafDriver(cfg, spec, interval)
	nw.traf = d
	for src := 0; src < n; src++ {
		// Deterministic per-node jittered start spreads the phases.
		start := sim.Time(d.rng.Int63n(int64(interval) + 1))
		nw.eng.At(start, evTick, int32(src), 0)
	}
	end := nw.run()
	if nw.lastArrive > end {
		// Inline-completed arrivals land one wire latency after the engine's
		// final event; the run ends when the last packet lands.
		end = nw.lastArrive
	}
	res := TrafficResult{Result: nw.res, OfferedBps: spec.PerNodeBps, Injected: d.injected}
	res.Finish = end
	res.MaxQueue = nw.maxQueue()
	if len(d.latencies) > 0 {
		var sum sim.Time
		for _, l := range d.latencies {
			sum += l
			if l > res.MaxLatency {
				res.MaxLatency = l
			}
		}
		res.MeanLatency = sum / sim.Time(len(d.latencies))
		sorted := append([]sim.Time(nil), d.latencies...)
		slices.Sort(sorted)
		res.P99Latency = sorted[len(sorted)*99/100]
		// Goodput: delivered bytes per node over the span traffic flowed.
		span := end
		if span <= 0 {
			span = spec.Duration
		}
		res.AcceptedBps = float64(res.PacketsDelivered) * float64(cfg.PacketBytes) /
			span.Seconds() / float64(n)
	}
	return res, nil
}

// LoadSweepPoint is one sample of a latency-throughput curve.
type LoadSweepPoint struct {
	OfferedBps  float64
	AcceptedBps float64
	Delivered   int64
	Injected    int64
	MeanLatency sim.Time
	P99Latency  sim.Time
}

// LoadSweep runs uniform-random traffic across offered rates and returns the
// latency-throughput curve. Rates are per node, bytes/second.
func LoadSweep(cfg Config, rates []float64, duration sim.Time, seed int64) ([]LoadSweepPoint, error) {
	var out []LoadSweepPoint
	for _, r := range rates {
		res, err := SimulateTraffic(cfg, TrafficSpec{Pattern: Uniform, PerNodeBps: r,
			Duration: duration, Seed: seed})
		if err != nil {
			return nil, err
		}
		out = append(out, LoadSweepPoint{OfferedBps: res.OfferedBps, AcceptedBps: res.AcceptedBps,
			Delivered: res.PacketsDelivered, Injected: res.Injected,
			MeanLatency: res.MeanLatency, P99Latency: res.P99Latency})
	}
	return out, nil
}

// SaturationBps estimates the per-node saturation rate of the fabric under
// uniform-random traffic: the smallest swept rate where mean packet latency
// exceeds 10x the zero-load latency (the classic knee of the
// latency-throughput curve; past it, source queues grow without bound and
// latency is unbounded in steady state). Returns the last rate if no
// saturation was reached in the sweep.
func SaturationBps(points []LoadSweepPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	ref := points[0].MeanLatency
	if ref <= 0 {
		ref = 1
	}
	for _, p := range points {
		if p.MeanLatency > 10*ref {
			return p.OfferedBps
		}
	}
	return points[len(points)-1].OfferedBps
}
