package config

import (
	"testing"

	"pimnet/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	s := Default()
	if err := s.Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	if got := s.DPUsPerChannel(); got != 256 {
		t.Fatalf("DPUs per channel = %d, want 256", got)
	}
	if got := s.BanksPerRank(); got != 64 {
		t.Fatalf("banks per rank = %d, want 64", got)
	}
}

func TestUPMEMServerShape(t *testing.T) {
	s := UPMEMServer()
	if err := s.Validate(); err != nil {
		t.Fatalf("UPMEMServer invalid: %v", err)
	}
	// Table II: 2560 DPUs, 20 ranks.
	if got := s.TotalDPUs(); got != 1280 {
		// 5 channels x 4 ranks x 64 = 1280; the physical server spreads 20
		// ranks over more channels, but per-channel shape is what matters.
		t.Fatalf("total DPUs = %d, want 1280", got)
	}
	if got := s.Channels * s.Ranks; got != 20 {
		t.Fatalf("total ranks = %d, want 20", got)
	}
}

func TestRankAggregateBW(t *testing.T) {
	s := Default()
	// Paper: 2.8 GB/s per bank x 64 banks = 179.2 GB/s per rank.
	got := float64(s.Net.BankChannels) * s.Net.BankChannelBW * float64(s.BanksPerRank())
	want := 179.2 * GBps
	if diff := got - want; diff > 1e6 || diff < -1e6 {
		t.Fatalf("rank aggregate BW = %v, want %v", got, want)
	}
}

func TestBankRingBW(t *testing.T) {
	s := Default()
	// 4 channels -> bidirectional ring -> effective 1.4 GB/s per node pair.
	if got := s.BankRingBW(); got != 1.4*GBps {
		t.Fatalf("bank ring BW = %v, want 1.4 GB/s", got)
	}
}

func TestWithDPUs(t *testing.T) {
	s := Default()
	cases := []struct {
		n                   int
		ranks, chips, banks int
	}{
		{1, 1, 1, 1},
		{4, 1, 1, 4},
		{8, 1, 1, 8},
		{16, 1, 2, 8},
		{64, 1, 8, 8},
		{128, 2, 8, 8},
		{256, 4, 8, 8},
		{512, 8, 8, 8},
	}
	for _, c := range cases {
		got, err := s.WithDPUs(c.n)
		if err != nil {
			t.Fatalf("WithDPUs(%d): %v", c.n, err)
		}
		if got.Ranks != c.ranks || got.ChipsPerRank != c.chips || got.BanksPerChip != c.banks {
			t.Fatalf("WithDPUs(%d) = %dx%dx%d, want %dx%dx%d",
				c.n, got.Ranks, got.ChipsPerRank, got.BanksPerChip, c.ranks, c.chips, c.banks)
		}
		if got.DPUsPerChannel() != c.n {
			t.Fatalf("WithDPUs(%d) holds %d DPUs", c.n, got.DPUsPerChannel())
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("WithDPUs(%d) invalid: %v", c.n, err)
		}
	}
}

func TestWithDPUsErrors(t *testing.T) {
	s := Default()
	for _, n := range []int{0, -4, 12, 100, 300} {
		if _, err := s.WithDPUs(n); err == nil {
			t.Errorf("WithDPUs(%d) succeeded, want error", n)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*System){
		func(s *System) { s.Channels = 0 },
		func(s *System) { s.Ranks = 0 },
		func(s *System) { s.ChipsPerRank = 0 },
		func(s *System) { s.BanksPerChip = -1 },
		func(s *System) { s.DPU.FreqHz = 0 },
		func(s *System) { s.DPU.WRAMBytes = 0 },
		func(s *System) { s.DPU.ComputeScale = 0 },
		func(s *System) { s.DPU.DMABandwidth = 0 },
		func(s *System) { s.Net.BankChannelBW = 0 },
		func(s *System) { s.Net.ChipChannelBW = -1 },
		func(s *System) { s.Net.RankBusBW = 0 },
		func(s *System) { s.Net.BankChannels = 1 },
		func(s *System) { s.Net.StepOverhead = -1 },
		func(s *System) { s.Host.PIMToCPUBW = 0 },
		func(s *System) { s.Host.ChannelBW = 0 },
		func(s *System) { s.Host.TransposeFactor = 0.5 },
		func(s *System) { s.Buffer.PIMBandwidth = 0 },
	}
	for i, mut := range mutations {
		s := Default()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestTierTable(t *testing.T) {
	rows := Default().TierTable()
	if len(rows) != 3 {
		t.Fatalf("tier table has %d rows, want 3", len(rows))
	}
	if rows[0].Tier != "inter-bank" || rows[0].ChannelGBps != 0.7 || rows[0].Channels != 4 {
		t.Fatalf("inter-bank row wrong: %+v", rows[0])
	}
	if rows[1].Tier != "inter-chip" || rows[1].ChannelGBps != 1.05 || rows[1].Channels != 2 {
		t.Fatalf("inter-chip row wrong: %+v", rows[1])
	}
	if rows[2].Tier != "inter-rank" || rows[2].ChannelGBps != 16.8 {
		t.Fatalf("inter-rank row wrong: %+v", rows[2])
	}
}

func TestPIMMemory(t *testing.T) {
	s := Default()
	// 256 DPUs x 64 MB = 16 GB per channel.
	if got := int64(s.DPUsPerChannel()) * s.DPU.MRAMBytes; got != 16<<30 {
		t.Fatalf("PIM memory = %d, want 16 GiB", got)
	}
}

func TestCycleTime(t *testing.T) {
	s := Default()
	ct := sim.Cycles(1, s.DPU.FreqHz)
	if ct < 2857 || ct > 2858 {
		t.Fatalf("cycle time = %d ps, want ~2857", int64(ct))
	}
}
