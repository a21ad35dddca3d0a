package experiments

import (
	"testing"

	"pimnet/internal/sim"
)

func TestAblationFlatVsHierarchical(t *testing.T) {
	rows, tbl, err := AblationFlatVsHierarchical()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != len(rows) || len(rows) < 3 {
		t.Fatal("table shape wrong")
	}
	// With zero per-step overhead the flat ring's full tier overlap can
	// win; the hierarchy must take over as per-step costs grow, and the
	// advantage must be monotone in the overhead.
	for i := 1; i < len(rows); i++ {
		if rows[i].HierAdvantage < rows[i-1].HierAdvantage {
			t.Fatalf("hier advantage not monotone: %+v", rows)
		}
	}
	last := rows[len(rows)-1]
	if last.HierAdvantage < 2 {
		t.Fatalf("at %v per-step overhead the hierarchy should win decisively, got %.2fx",
			last.StepOverhead, last.HierAdvantage)
	}
	// The flat ring pays per step 64x more often: its sensitivity to the
	// overhead must be much larger.
	flatGrowth := float64(last.FlatRing) / float64(rows[0].FlatRing)
	hierGrowth := float64(last.Hierarchical) / float64(rows[0].Hierarchical)
	if flatGrowth < 4*hierGrowth {
		t.Fatalf("flat ring should be far more overhead-sensitive: flat %.2fx vs hier %.2fx",
			flatGrowth, hierGrowth)
	}
}

func TestAblationSyncSensitivity(t *testing.T) {
	rows, _, err := AblationSyncSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 15 ns estimate must be negligible (<1%)...
	if rows[0].SyncLatency != 15*sim.Nanosecond || rows[0].SyncShare > 0.01 {
		t.Fatalf("15ns sync share = %.3f, want < 1%%", rows[0].SyncShare)
	}
	// ...and the share must grow monotonically with the latency.
	for i := 1; i < len(rows); i++ {
		if rows[i].SyncShare < rows[i-1].SyncShare {
			t.Fatal("sync share not monotone")
		}
		if rows[i].ARTime < rows[i-1].ARTime {
			t.Fatal("AR time decreased with more sync latency")
		}
	}
	if last := rows[len(rows)-1]; last.SyncShare < 0.3 {
		t.Fatalf("150us sync should dominate, share = %.2f", last.SyncShare)
	}
}

func TestAblationWRAMStaging(t *testing.T) {
	rows, _, err := AblationWRAMStaging()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PayloadBytes <= 32<<10 && r.MemShare != 0 {
			t.Fatalf("%d B payload should fit WRAM, Mem share %.2f", r.PayloadBytes, r.MemShare)
		}
		if r.PayloadBytes >= 64<<10 && r.MemShare == 0 {
			t.Fatalf("%d B payload should stage, Mem share 0", r.PayloadBytes)
		}
	}
}

func TestAblationNocParameters(t *testing.T) {
	rows, _, err := AblationNocParameters()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At the default operating point (2-packet buffers, 1 KiB packets) the
	// static schedule must hold a clear advantage.
	for _, r := range rows {
		if r.BufferPackets == 2 && r.PacketBytes == 1024 && r.A2AReduction < 0.1 {
			t.Fatalf("default point advantage = %.2f", r.A2AReduction)
		}
	}
	// Deeper buffers at fixed packet size must not increase the gap.
	gap := map[int]float64{}
	for _, r := range rows {
		if r.PacketBytes == 1024 {
			gap[r.BufferPackets] = r.A2AReduction
		}
	}
	if gap[8] > gap[1]+0.02 {
		t.Fatalf("deep buffers should shrink the credit-based penalty: %v", gap)
	}
	// Every 32 KiB/256-DPU All-to-All message is 128 B, one packet at any
	// of the three packet sizes, so a buffer depth's rows are one network.
	for _, r := range rows {
		if r.A2AReduction != gap[r.BufferPackets] {
			t.Fatalf("buffer %d: %d B packets give %.4f, 1024 B give %.4f",
				r.BufferPackets, r.PacketBytes, r.A2AReduction, gap[r.BufferPackets])
		}
	}
}

func TestAblationInterChannel(t *testing.T) {
	rows, _, err := AblationInterChannel()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The channel-wise reduction already minimized cross-channel data,
		// so the hypothetical link buys little — the quantified version of
		// the paper's decision to scope PIMnet to one channel.
		if r.Benefit < 0.99 || r.Benefit > 1.5 {
			t.Fatalf("inter-channel link benefit at %d channels = %.2f, expected marginal",
				r.Channels, r.Benefit)
		}
	}
}

func TestAblationBaselineTranspose(t *testing.T) {
	tbl, err := AblationBaselineTranspose()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 3 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
}
