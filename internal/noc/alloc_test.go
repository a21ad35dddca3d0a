package noc

import (
	"testing"

	"pimnet/internal/sim"
)

// TestSteadyStatePacketPathZeroAllocs is the allocation contract of the
// flat core: once the arenas (packet slots, blocks, message groups, hop
// rings, engine queue) have grown to a workload's high-water mark, running
// a whole scripted collective again on the same network — the complete
// send/inject/admit/serve/finish/forward/depart/arrive chain, with
// two-packet messages waiting as blocks for credits — allocates nothing.
func TestSteadyStatePacketPathZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(2, 4, 8)
	n := cfg.Nodes()
	want := int64(n * (n - 1) * 2)
	// 128 KiB per node over 64 nodes: 2 KiB per destination, two packets
	// per message. The first run grows every arena to its high-water mark.
	nw, res, err := runScripts(cfg, CreditBased, make([]sim.Time, n), allToAllScripts(n, 128<<10), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered != want {
		t.Fatalf("first run delivered %d packets, want %d", res.PacketsDelivered, want)
	}
	if len(nw.blocks) == 0 {
		t.Fatal("no message waited as a block: the run misses the credit path")
	}

	c := nw.coll
	if avg := testing.AllocsPerRun(50, func() {
		t0 := nw.eng.Now()
		clear(c.sent)
		clear(c.recvd)
		clear(c.next)
		for i := range c.release {
			c.release[i] = t0
		}
		before := nw.res.PacketsDelivered
		for i := 0; i < n; i++ {
			nw.eng.At(t0, evTry, int32(i), 0)
		}
		nw.run()
		if got := nw.res.PacketsDelivered - before; got != want {
			t.Fatalf("rerun delivered %d packets, want %d", got, want)
		}
	}); avg != 0 {
		t.Fatalf("steady-state packet path allocates %.1f times per cycle, want 0", avg)
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
	checkPacketArena(t, nw, cfg)
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

// TestTransposePacketArenaBoundedByOccupancy runs the credit-mode transpose
// cell of pimnetbench -fig noc: 2560 nodes, two steps of 32-packet
// messages. When every segment became a packet at send, a step's 81,920
// packets were all live at once; made as credits free, they stay within
// hop occupancy.
func TestTransposePacketArenaBoundedByOccupancy(t *testing.T) {
	cfg := DefaultConfig(4, 8, 80)
	n := cfg.Nodes()
	nw, res, err := runScripts(cfg, CreditBased, make([]sim.Time, n),
		patternScripts(Transpose, n, 2, 32<<10, 42), false)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * n * 32); res.PacketsDelivered != want {
		t.Fatalf("delivered %d packets, want %d", res.PacketsDelivered, want)
	}
	checkPacketArena(t, nw, cfg)
}

// checkPacketArena asserts that the run's live packets never exceeded hop
// occupancy: BufferPackets+2 per hop (a full buffer plus packets crossing a
// wire into it) and one segment per node waiting for its first hop's
// credit. The bound does not grow with message size or run length, and the
// arena holds exactly the peak.
func checkPacketArena(t *testing.T, nw *network, cfg Config) {
	t.Helper()
	if max := nw.f.numHops*int32(cfg.BufferPackets+2) + int32(cfg.Nodes()); nw.pktPeak > max {
		t.Errorf("peak live packets %d exceeds occupancy bound %d", nw.pktPeak, max)
	}
	if got, peak := int32(len(nw.pkts)), nw.pktPeak; got != peak {
		t.Errorf("packet arena holds %d slots, want exactly the peak %d", got, peak)
	}
}
