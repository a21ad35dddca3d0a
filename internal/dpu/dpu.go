// Package dpu models the compute side of a PIM bank: the UPMEM DPU's
// tasklet-pipelined instruction throughput, the per-operation cycle costs
// (including the software-emulated 32-bit multiply that makes MLP and NTT
// compute-bound on real hardware, Section VI-B), and the MRAM<->WRAM DMA
// engine. Workload kernels are expressed as operation counts; this package
// turns them into simulated time.
package dpu

import (
	"fmt"
	"math"

	"pimnet/internal/config"
	"pimnet/internal/sim"
)

// Kernel is the per-DPU operation profile of one compute superstep. Counts
// are for the busiest DPU (the collective cannot start until the slowest
// participant reaches the synchronization point).
type Kernel struct {
	Adds   int64 // integer add/sub/logic ops
	Muls   int64 // integer multiplies (emulated in software on UPMEM)
	Loads  int64 // WRAM reads
	Stores int64 // WRAM writes
	Other  int64 // control, address arithmetic, branches
}

// Add accumulates another kernel's counts.
func (k *Kernel) Add(other Kernel) {
	k.Adds += other.Adds
	k.Muls += other.Muls
	k.Loads += other.Loads
	k.Stores += other.Stores
	k.Other += other.Other
}

// Scale multiplies all counts by f (f >= 0).
func (k Kernel) Scale(f int64) Kernel {
	if f < 0 {
		panic("dpu: negative kernel scale")
	}
	return Kernel{Adds: k.Adds * f, Muls: k.Muls * f, Loads: k.Loads * f,
		Stores: k.Stores * f, Other: k.Other * f}
}

// Model evaluates kernels against a DPU configuration.
type Model struct {
	cfg config.DPU
}

// NewModel returns a compute model for the DPU configuration.
func NewModel(cfg config.DPU) (*Model, error) {
	if cfg.FreqHz <= 0 {
		return nil, fmt.Errorf("dpu: frequency %v <= 0", cfg.FreqHz)
	}
	if cfg.ComputeScale <= 0 {
		return nil, fmt.Errorf("dpu: compute scale %v <= 0", cfg.ComputeScale)
	}
	if cfg.PipelineOK <= 0 {
		return nil, fmt.Errorf("dpu: pipeline threshold %d <= 0", cfg.PipelineOK)
	}
	return &Model{cfg: cfg}, nil
}

// IPC returns the instruction throughput (instructions per cycle) achieved
// with the given tasklet count. The 14-stage pipeline issues one
// instruction per cycle only when at least PipelineOK tasklets interleave
// (11 on UPMEM); below that, throughput degrades proportionally — the
// behaviour characterized by PrIM [39].
func (m *Model) IPC(tasklets int) float64 {
	if tasklets <= 0 {
		return 0
	}
	if tasklets >= m.cfg.PipelineOK {
		return 1
	}
	return float64(tasklets) / float64(m.cfg.PipelineOK)
}

// Cycles converts a kernel into DPU cycles at full pipeline occupancy.
func (m *Model) Cycles(k Kernel) int64 {
	c := m.cfg
	raw := float64(k.Adds)*c.AddCycles +
		float64(k.Muls)*c.MulCycles +
		float64(k.Loads)*c.LoadCycles +
		float64(k.Stores)*c.StoreCycles +
		float64(k.Other)
	return int64(math.Ceil(raw / c.ComputeScale))
}

// Time converts a kernel into simulated time using all hardware tasklets.
func (m *Model) Time(k Kernel) sim.Time {
	return m.TimeWithTasklets(k, m.cfg.Tasklets)
}

// TimeWithTasklets converts a kernel into simulated time at the given
// tasklet occupancy.
func (m *Model) TimeWithTasklets(k Kernel, tasklets int) sim.Time {
	ipc := m.IPC(tasklets)
	if ipc <= 0 {
		return sim.MaxTime
	}
	cycles := int64(math.Ceil(float64(m.Cycles(k)) / ipc))
	return sim.Cycles(cycles, m.cfg.FreqHz)
}

// DMATime returns the cost of moving bytes between MRAM and WRAM: a fixed
// per-burst setup latency plus sustained-bandwidth streaming, with bursts
// bounded by the usable scratchpad.
func (m *Model) DMATime(bytes int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	usable := m.cfg.WRAMBytes / 2
	if usable <= 0 {
		usable = 1
	}
	bursts := (bytes + usable - 1) / usable
	return sim.TransferTime(bytes, m.cfg.DMABandwidth) + sim.Time(bursts)*m.cfg.DMALatency
}
