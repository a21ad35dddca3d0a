package noc

import (
	"testing"

	"pimnet/internal/sim"
)

// TestSteadyStatePacketPathZeroAllocs is the allocation contract of the
// flat core: once the arenas (packet slots, hop rings, engine queue) have
// grown to a workload's high-water mark, injecting and fully draining a
// batch of packets — the complete inject/admit/serve/finish/forward/depart
// chain — allocates nothing.
func TestSteadyStatePacketPathZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(2, 4, 8)
	n := cfg.Nodes()
	f := buildFabric(cfg)
	nw := newNetwork(f, cfg)
	d := &trafDriver{latencies: make([]sim.Time, 0, 1024)}
	nw.traf = d

	cycle := func() {
		d.latencies = d.latencies[:0]
		t0 := nw.eng.Now()
		for i := 0; i < 256; i++ {
			src := i % n
			dst := (src + 1 + i*7%(n-1)) % n
			if dst == src {
				dst = (dst + 1) % n
			}
			p := nw.allocPacket()
			off, plen := f.path(src, dst)
			pk := &nw.pkts[p]
			pk.bytes, pk.born, pk.pathOff, pk.pathLen = cfg.PacketBytes, t0, off, plen
			nw.inject(p, t0)
		}
		nw.run()
	}

	cycle() // warm-up: grow every arena to its high-water mark once
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("steady-state packet path allocates %.1f times per cycle, want 0", avg)
	}
	if len(d.latencies) != 256 {
		t.Fatalf("cycle delivered %d packets, want 256", len(d.latencies))
	}
}

// TestSaturatedRunBoundedPeakHeap is the reslice-leak regression lock: the
// old implementation's q = q[1:] / waiters = waiters[1:] pattern pinned
// each queue's whole backing array for the run, so a long saturated run's
// heap grew with total traffic. In the flat core every arena is sized by
// concurrent occupancy: after a saturated all-to-all that delivers tens of
// thousands of packets, the packet arena, the engine's queue, and the hop
// rings must all be orders of magnitude smaller than the delivered count.
func TestSaturatedRunBoundedPeakHeap(t *testing.T) {
	cfg := DefaultConfig(2, 4, 8)
	n := cfg.Nodes()
	done := make([]sim.Time, n)
	// 1 MiB per node -> 16 KiB blocks -> 16 packets per message: deep
	// saturation of the crossbar ports and the bus for the whole run.
	nw, res, err := runScripts(cfg, CreditBased, done, allToAllScripts(n, 1<<20), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered < 50000 {
		t.Fatalf("run delivered only %d packets; not a saturating workload", res.PacketsDelivered)
	}

	// Live packets are bounded by in-flight messages (<= 1 per node) times
	// packets per message, not by the run length.
	if max := int32(n * 32); nw.pktPeak > max {
		t.Errorf("peak live packets %d exceeds occupancy bound %d", nw.pktPeak, max)
	}
	if got, peak := int32(len(nw.pkts)), nw.pktPeak; got != peak {
		t.Errorf("packet arena holds %d slots, want exactly the peak %d", got, peak)
	}
	// The engine's lanes, heap and FIFO are sized by the peak pending set,
	// about one event per hop and node, not by the run's event total.
	if got := int64(nw.eng.QueueCap()); got > res.PacketsDelivered/100 {
		t.Errorf("engine queue holds %d slots for %d deliveries; it is not recycling",
			got, res.PacketsDelivered)
	}
	// Queue rings stay within a doubling of the configured buffer depth.
	for h := range nw.hops {
		if got := len(nw.hops[h].q); got > 8*cfg.BufferPackets {
			t.Errorf("hop %d ring grew to %d slots (buffer depth %d)", h, got, cfg.BufferPackets)
		}
	}
}
