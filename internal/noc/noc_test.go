package noc

import (
	"fmt"
	"testing"

	"pimnet/internal/sim"
)

func flat(n int, t sim.Time) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// ringID returns the hop id of ring segment (rank, chip, bank).
func (f *fabric) ringID(r, c, b int) int32 {
	return (int32(r)*f.chips+int32(c))*f.banks + int32(b)
}

// outID returns the hop id of the DQ send port of (rank, chip).
func (f *fabric) outID(r, c int) int32 { return f.outBase + int32(r)*f.chips + int32(c) }

// inID returns the hop id of the DQ receive port of (rank, chip).
func (f *fabric) inID(r, c int) int32 { return f.inBase + int32(r)*f.chips + int32(c) }

// hopName derives hop h's display name, for test failure messages.
func (f *fabric) hopName(h int32) string {
	switch {
	case h < f.outBase:
		q, b := h/f.banks, h%f.banks
		return fmt.Sprintf("ring[%d,%d,%d]", q/f.chips, q%f.chips, b)
	case h < f.inBase:
		q := h - f.outBase
		return fmt.Sprintf("out[%d,%d]", q/f.chips, q%f.chips)
	case h < f.busID:
		q := h - f.inBase
		return fmt.Sprintf("in[%d,%d]", q/f.chips, q%f.chips)
	default:
		return "bus"
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(4, 8, 8)
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	if good.Nodes() != 256 {
		t.Fatalf("nodes = %d", good.Nodes())
	}
	bad := []Config{
		{Ranks: 0, Chips: 1, Banks: 1, BufferPackets: 1, PacketBytes: 1},
		{Ranks: 1, Chips: 1, Banks: 1, BufferPackets: 0, PacketBytes: 1},
		{Ranks: 1, Chips: 1, Banks: 1, BufferPackets: 1, PacketBytes: 0},
		// 4611686018427387905*4 wraps to 4 in int64: the product must be
		// rejected, not simulated as a 4-node channel.
		{Ranks: 4611686018427387905, Chips: 4, Banks: 1, BufferPackets: 1, PacketBytes: 1},
	}
	for i, c := range bad {
		if _, err := SimulateAllReduce(c, CreditBased, flat(c.Nodes(), 0), 1024); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if CreditBased.String() != "credit-based" || StaticScheduled.String() != "PIM-controlled" {
		t.Fatal("mode names wrong")
	}
}

func TestFabricPaths(t *testing.T) {
	f := buildFabric(DefaultConfig(2, 2, 4))
	hops := func(src, dst int) []int32 {
		off, n := f.path(src, dst)
		return f.paths[off : off+n]
	}
	eq := func(got []int32, want ...int32) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	// Intra-chip: clockwise ring hops.
	if p := hops(0, 2); !eq(p, f.ringID(0, 0, 0), f.ringID(0, 0, 1)) {
		t.Fatalf("intra-chip path wrong: %v", names(f, p))
	}
	// Wraparound.
	if p := hops(3, 0); !eq(p, f.ringID(0, 0, 3)) {
		t.Fatalf("wraparound path wrong: %v", names(f, p))
	}
	// Inter-chip, same rank: out then in, no bus.
	if p := hops(0, 5); !eq(p, f.outID(0, 0), f.inID(0, 1)) {
		t.Fatalf("inter-chip path wrong: %v", names(f, p))
	}
	// Inter-rank: out, bus, in.
	if p := hops(0, 9); !eq(p, f.outID(0, 0), f.busID, f.inID(1, 0)) {
		t.Fatalf("inter-rank path wrong: %v", names(f, p))
	}
}

func TestHopNames(t *testing.T) {
	f := buildFabric(DefaultConfig(2, 2, 4))
	cases := map[int32]string{
		f.ringID(1, 0, 3): "ring[1,0,3]",
		f.outID(0, 1):     "out[0,1]",
		f.inID(1, 1):      "in[1,1]",
		f.busID:           "bus",
	}
	for h, want := range cases {
		if got := f.hopName(h); got != want {
			t.Errorf("hopName(%d) = %q, want %q", h, got, want)
		}
	}
}

func names(f *fabric, hops []int32) []string {
	var out []string
	for _, h := range hops {
		out = append(out, f.hopName(h))
	}
	return out
}

func TestSkewedFinishTimes(t *testing.T) {
	a := SkewedFinishTimes(64, 100*sim.Microsecond, 50*sim.Microsecond, 1)
	b := SkewedFinishTimes(64, 100*sim.Microsecond, 50*sim.Microsecond, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different times")
		}
		if a[i] < 100*sim.Microsecond || a[i] > 150*sim.Microsecond {
			t.Fatalf("finish time %v out of range", a[i])
		}
	}
	var varies bool
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			varies = true
		}
	}
	if !varies {
		t.Fatal("no skew generated")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	cfg := DefaultConfig(2, 4, 4)
	done := SkewedFinishTimes(cfg.Nodes(), 10*sim.Microsecond, 5*sim.Microsecond, 3)
	a, err := SimulateAllToAll(cfg, CreditBased, done, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateAllToAll(cfg, CreditBased, done, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Finish != b.Finish || a.PacketsDelivered != b.PacketsDelivered {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestAllPacketsDelivered(t *testing.T) {
	cfg := DefaultConfig(1, 2, 4)
	n := cfg.Nodes()
	done := flat(n, 0)
	res, err := SimulateAllToAll(cfg, StaticScheduled, done, int64(n)*cfg.PacketBytes)
	if err != nil {
		t.Fatal(err)
	}
	// n nodes x (n-1) steps, one packet each (block size == packet size).
	want := int64(n) * int64(n-1)
	if res.PacketsDelivered != want {
		t.Fatalf("delivered %d packets, want %d", res.PacketsDelivered, want)
	}
	if res.Finish <= 0 {
		t.Fatal("zero finish time")
	}
}

func TestScriptsShape(t *testing.T) {
	ar := allReduceScripts(8, 1024)
	if len(ar) != 8 || len(ar[0].msgs) != 14 { // 2*(8-1) steps
		t.Fatalf("AR scripts: %d nodes x %d steps", len(ar), len(ar[0].msgs))
	}
	for _, s := range ar {
		for _, m := range s.msgs {
			if m.dst != (m.src+1)%8 {
				t.Fatal("AR message not to ring successor")
			}
		}
	}
	aa := allToAllScripts(8, 1024)
	if len(aa[0].msgs) != 7 {
		t.Fatalf("A2A steps = %d", len(aa[0].msgs))
	}
	// Across all steps every node reaches every other node exactly once.
	for i, s := range aa {
		seen := map[int]bool{}
		for _, m := range s.msgs {
			if m.dst == i || seen[m.dst] {
				t.Fatal("A2A destinations wrong")
			}
			seen[m.dst] = true
		}
	}
}

// TestAllToAllConfigIsInert pins the equivalence AllToAllConfig names: with
// the packet size below the message size (messages split, the last packet
// short), equal to it, and above it, SimulateAllToAll returns the same whole
// Result for cfg and for its canonical form, under both flow-control modes.
func TestAllToAllConfigIsInert(t *testing.T) {
	const bytes = 32 << 10
	for _, shape := range [][3]int{{1, 2, 8}, {1, 8, 8}, {4, 8, 8}} {
		base := DefaultConfig(shape[0], shape[1], shape[2])
		n := base.Nodes()
		blk := allToAllBlock(n, bytes)
		done := SkewedFinishTimes(n, 100*sim.Microsecond, 20*sim.Microsecond, 42)
		for _, pkt := range []int64{blk * 2 / 3, blk, 4 * blk} {
			cfg := base
			cfg.PacketBytes = pkt
			canon := AllToAllConfig(cfg, bytes)
			if want := min(pkt, blk); canon.PacketBytes != want {
				t.Fatalf("%d nodes, %d B packets: canonical packet %d B, want %d",
					n, pkt, canon.PacketBytes, want)
			}
			rest := canon
			rest.PacketBytes = pkt
			if rest != cfg {
				t.Fatalf("%d nodes: canonical form changed more than the packet size: %+v", n, canon)
			}
			for _, mode := range []Mode{CreditBased, StaticScheduled} {
				got, err := SimulateAllToAll(canon, mode, done, bytes)
				if err != nil {
					t.Fatal(err)
				}
				want, err := SimulateAllToAll(cfg, mode, done, bytes)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%d nodes, %d B packets, %v: canonical %+v, original %+v",
						n, pkt, mode, got, want)
				}
				if pkt < blk && got.PacketsDelivered != 2*int64(n)*int64(n-1) {
					t.Fatalf("%d nodes, %d B packets: %d packets, want every message split in two",
						n, pkt, got.PacketsDelivered)
				}
			}
		}
	}
}

// The Fig. 13 headline results as regression tests.
func TestFlowControlComparison(t *testing.T) {
	cfg := DefaultConfig(4, 8, 8)
	done := SkewedFinishTimes(cfg.Nodes(), 100*sim.Microsecond, 20*sim.Microsecond, 42)

	// AllReduce: static scheduling within ~2% of credit-based.
	arC, err := SimulateAllReduce(cfg, CreditBased, done, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	arS, err := SimulateAllReduce(cfg, StaticScheduled, done, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(arS.Finish) / float64(arC.Finish)
	if ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("AR static/credit = %.3f, want ~1.0 (paper: within 1%%)", ratio)
	}

	// All-to-All: static scheduling at least 10% faster (paper: 18.7%).
	aaC, err := SimulateAllToAll(cfg, CreditBased, done, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	aaS, err := SimulateAllToAll(cfg, StaticScheduled, done, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if float64(aaS.Finish) > 0.9*float64(aaC.Finish) {
		t.Fatalf("A2A static (%v) should be >=10%% faster than credit (%v)",
			aaS.Finish, aaC.Finish)
	}
}

func TestNoSkewModesConverge(t *testing.T) {
	// With identical finish times the two policies see the same network;
	// only the sync latency separates them.
	cfg := DefaultConfig(2, 4, 4)
	done := flat(cfg.Nodes(), 50*sim.Microsecond)
	c, _ := SimulateAllToAll(cfg, CreditBased, done, 16<<10)
	s, _ := SimulateAllToAll(cfg, StaticScheduled, done, 16<<10)
	diff := float64(s.Finish-c.Finish) / float64(c.Finish)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.01 {
		t.Fatalf("no-skew modes differ by %.2f%%", diff*100)
	}
}

func TestTrivialScopes(t *testing.T) {
	cfg := DefaultConfig(1, 1, 1)
	res, err := SimulateAllReduce(cfg, CreditBased, flat(1, 0), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish != 0 || res.PacketsDelivered != 0 {
		t.Fatalf("single node should be free: %+v", res)
	}
	if _, err := SimulateAllReduce(cfg, CreditBased, flat(2, 0), 1024); err == nil {
		t.Fatal("mismatched finish-time count accepted")
	}
}

func TestBackpressureWitness(t *testing.T) {
	// Under skewed all-to-all, queues must actually form (the contention
	// the static schedule avoids at compile time).
	cfg := DefaultConfig(4, 8, 8)
	done := SkewedFinishTimes(cfg.Nodes(), 100*sim.Microsecond, 20*sim.Microsecond, 7)
	res, err := SimulateAllToAll(cfg, CreditBased, done, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue < 2 {
		t.Fatalf("expected queueing under credit-based A2A, max queue = %d", res.MaxQueue)
	}
}
