package dpu

import (
	"testing"

	"pimnet/internal/config"
	"pimnet/internal/sim"
)

func model(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(config.Default().DPU)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	bad := config.Default().DPU
	bad.FreqHz = 0
	if _, err := NewModel(bad); err == nil {
		t.Fatal("zero frequency accepted")
	}
	bad = config.Default().DPU
	bad.ComputeScale = 0
	if _, err := NewModel(bad); err == nil {
		t.Fatal("zero compute scale accepted")
	}
	bad = config.Default().DPU
	bad.PipelineOK = 0
	if _, err := NewModel(bad); err == nil {
		t.Fatal("zero pipeline threshold accepted")
	}
}

func TestIPCPipelineModel(t *testing.T) {
	m := model(t)
	if got := m.IPC(24); got != 1 {
		t.Fatalf("IPC(24) = %v, want 1", got)
	}
	if got := m.IPC(11); got != 1 {
		t.Fatalf("IPC(11) = %v, want 1 (UPMEM pipeline threshold)", got)
	}
	if got := m.IPC(1); got >= 0.2 {
		t.Fatalf("IPC(1) = %v, want degraded throughput", got)
	}
	if got := m.IPC(0); got != 0 {
		t.Fatalf("IPC(0) = %v, want 0", got)
	}
}

func TestMulEmulationCost(t *testing.T) {
	// Software-emulated multiplies must be much slower than adds — the
	// reason MLP/NTT are compute-bound on UPMEM (Section VI-B).
	m := model(t)
	adds := m.Time(Kernel{Adds: 1e6})
	muls := m.Time(Kernel{Muls: 1e6})
	if muls < adds*8 {
		t.Fatalf("mul (%v) should cost >= 8x add (%v)", muls, adds)
	}
}

func TestComputeScaleSpeedsKernels(t *testing.T) {
	// Fig. 15: GDDR6-AiM-class compute (180x) shrinks kernel time ~180x.
	cfg := config.Default().DPU
	slow, _ := NewModel(cfg)
	cfg.ComputeScale = 180
	fast, _ := NewModel(cfg)
	k := Kernel{Muls: 1e6, Adds: 1e6}
	ts, tf := slow.Time(k), fast.Time(k)
	ratio := float64(ts) / float64(tf)
	if ratio < 150 || ratio > 200 {
		t.Fatalf("compute scale 180 gave ratio %.1f", ratio)
	}
}

func TestKernelArithmetic(t *testing.T) {
	k := Kernel{Adds: 1, Muls: 2, Loads: 3, Stores: 4, Other: 5}
	if k2 := k.Scale(3); k2 != (Kernel{Adds: 3, Muls: 6, Loads: 9, Stores: 12, Other: 15}) {
		t.Fatalf("scaled kernel = %+v", k2)
	}
	var acc Kernel
	acc.Add(k)
	acc.Add(k)
	if acc != k.Scale(2) {
		t.Fatalf("accumulated kernel = %+v", acc)
	}
}

func TestKernelScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative scale did not panic")
		}
	}()
	Kernel{}.Scale(-1)
}

func TestCyclesMatchConfig(t *testing.T) {
	m := model(t)
	cfg := config.Default().DPU
	k := Kernel{Adds: 100, Muls: 10, Loads: 50, Stores: 25, Other: 5}
	want := int64(100*cfg.AddCycles + 10*cfg.MulCycles + 50*cfg.LoadCycles +
		25*cfg.StoreCycles + 5)
	if got := m.Cycles(k); got != want {
		t.Fatalf("cycles = %d, want %d", got, want)
	}
}

func TestDMATime(t *testing.T) {
	m := model(t)
	if m.DMATime(0) != 0 {
		t.Fatal("zero bytes should be free")
	}
	small := m.DMATime(1024)
	if small <= 0 {
		t.Fatal("DMA has zero cost")
	}
	// Streaming dominates for large transfers: 64 MB at 0.63 GB/s ~ 100 ms.
	big := m.DMATime(64 << 20)
	if big < 90*sim.Millisecond || big > 130*sim.Millisecond {
		t.Fatalf("64MB DMA = %v, want ~107ms", big)
	}
}

func TestPeakThroughputs(t *testing.T) {
	m := model(t)
	// Peak add-class throughput across the pipeline: the roofline's compute roof.
	if got := m.cfg.FreqHz / m.cfg.AddCycles * m.cfg.ComputeScale; got != 350e6 {
		t.Fatalf("peak ops/s = %v, want 350e6", got)
	}
}

func TestTimeWithZeroTasklets(t *testing.T) {
	m := model(t)
	if got := m.TimeWithTasklets(Kernel{Adds: 1}, 0); got != sim.MaxTime {
		t.Fatalf("zero tasklets should be unrunnable, got %v", got)
	}
}
