// Package config defines the simulated system configuration: the PIM
// topology and compute parameters (paper Table II/VI), the PIMnet tier
// parameters (Table IV), and the host-path bandwidths and overheads used by
// the software baselines. Default() reproduces the paper's evaluation
// configuration: a DDR4-2400 channel with 4 ranks, 8 chips per rank, 8 PIM
// banks per chip (256 DPUs per channel).
package config

import (
	"fmt"

	"pimnet/internal/sim"
)

// Bandwidth constants, bytes per second.
const (
	GBps = 1e9
)

// DPU describes the per-bank compute unit (UPMEM DPU, Table II/VI).
type DPU struct {
	FreqHz     float64 // 350 MHz in the paper
	Tasklets   int     // hardware threads; >= 11 keeps the 14-stage pipeline full
	WRAMBytes  int64   // 64 KB scratchpad; collectives operate out of WRAM
	IRAMBytes  int64   // 24 KB instruction memory
	MRAMBytes  int64   // 64 MB bank memory
	PipelineOK int     // tasklets needed for 1 instr/cycle throughput

	// Per-operation cycle costs for the kernel cost model. UPMEM DPUs have
	// no native multiplier: 32-bit multiply is emulated in software.
	AddCycles   float64
	MulCycles   float64
	LoadCycles  float64 // WRAM access
	StoreCycles float64

	// ComputeScale divides compute time; 1 for UPMEM. Fig. 15 raises it to
	// model HBM-PIM and GDDR6-AiM class MAC throughput.
	ComputeScale float64

	// DMA engine between MRAM and WRAM within a bank.
	DMABandwidth float64  // bytes/s, sustained
	DMALatency   sim.Time // fixed setup per DMA burst
}

// Net describes the three PIMnet tiers (Table IV).
type Net struct {
	// Inter-bank: the chip's internal I/O bus partitioned into four 16-bit
	// unidirectional ring channels.
	BankChannels  int     // 4: In/Out x East/West
	BankChannelBW float64 // 0.7 GB/s each
	BankHopLat    sim.Time

	// Inter-chip: DQ pins split 4 send + 4 receive, routed to the 8x8
	// buffer-chip crossbar.
	ChipChannels  int     // 2: one send, one receive
	ChipChannelBW float64 // 1.05 GB/s each
	ChipHopLat    sim.Time
	SwitchLat     sim.Time // crossbar traversal

	// Inter-rank: the multi-drop DDR bus reused as a broadcast medium.
	RankBusBW  float64 // 16.8 GB/s, half duplex
	RankBusLat sim.Time

	// READY/START synchronization tree propagation (worst case ~15 ns
	// across the whole PIMnet, Section VI).
	SyncBankLat sim.Time // bank -> chip control interface round trip
	SyncChipLat sim.Time // chip -> inter-chip switch round trip
	SyncRankLat sim.Time // rank -> inter-rank switch round trip

	// StepOverhead is a fixed guard charged at every lock-step boundary of
	// a compiled schedule: the knob ablation A1 turns to model per-step
	// skew, bus turnaround and control distribution. Zero by default (the
	// paper's deterministic timing needs no guard). It is left out of the
	// System's JSON because a plan key's digest writes it after the
	// request, under the name StepOverheadPs (see core.PlanKey.Digest).
	StepOverhead sim.Time `json:"-"`
}

// Host describes the host-CPU path used by the software implementations.
// The three bandwidths are the paper's measured UPMEM numbers (Table VI).
type Host struct {
	PIMToCPUBW  float64 // 4.74 GB/s
	CPUToPIMBW  float64 // 6.68 GB/s
	BroadcastBW float64 // 16.88 GB/s, CPU -> all PIM broadcast
	ChannelBW   float64 // 19.2 GB/s raw DDR channel, the Software(Ideal) rate

	// Baseline-only overheads. Software(Ideal) zeroes all of them.
	LaunchOverhead  sim.Time // per collective API invocation (driver, kernel launch)
	RankSetup       sim.Time // per-rank transfer initiation
	ReduceBW        float64  // host-side elementwise reduce throughput, bytes/s
	TransposeFactor float64  // effective-bandwidth divisor for the rank-interleaved
	// layout reshaping the UPMEM SDK performs on every
	// gather/scatter (>= 1; 1 disables the penalty)
}

// BufferChip describes the DIMM buffer chip assumed by DIMM-Link and
// NDPBridge (and by PIMnet's inter-chip/inter-rank switches).
type BufferChip struct {
	PIMBandwidth float64  // 19.2 GB/s aggregate buffer-chip <-> banks (paper cites [89])
	ReduceBW     float64  // elementwise reduce throughput inside the buffer chip
	HopLatency   sim.Time // bridge/forwarding latency per hop (NDPBridge-style)
}

// CXL describes the CXL-attached PIM variant used by the CXL-PIM backend:
// the channel population is split across Devices PIM devices hanging off a
// switched CXL fabric. Inside a device the PIMnet tiers apply unchanged;
// between devices every byte crosses SwitchHops+1 link traversals of
// LinkLatency each and serializes on the device's full-duplex LinkBandwidth.
// DeviceMemBytes is the per-device capacity — the axis on which CXL-PIM
// relaxes the DIMM systems' sharding constraint (a device holds far more
// than its DPUs' aggregate MRAM). All fields are scalars so System stays
// comparable (the plan-cache key depends on it).
type CXL struct {
	Devices        int      // PIM devices on the fabric; the population splits evenly across them
	LinkLatency    sim.Time // one link traversal (device<->switch or switch<->switch)
	LinkBandwidth  float64  // per-device link rate, bytes/s each direction (full duplex)
	SwitchHops     int      // switches crossed between any device pair
	ReduceBW       float64  // device-controller elementwise reduce throughput, bytes/s
	DeviceMemBytes int64    // CXL-expander capacity per device
}

// DefaultCXL returns the CXL 2.0-class fabric parameters the CXL-PIM
// backend assumes: four devices behind one switch level, x8 PCIe-5 links.
func DefaultCXL() CXL {
	return CXL{
		Devices:        4,
		LinkLatency:    150 * sim.Nanosecond, // load-to-use class CXL.mem latency per traversal
		LinkBandwidth:  32 * GBps,            // x8 PCIe 5.0, per direction
		SwitchHops:     1,
		ReduceBW:       19.2 * GBps, // device-controller reduce, buffer-chip class
		DeviceMemBytes: 256 << 30,   // 256 GiB expander per device
	}
}

// WithDefaults fills zero fields from DefaultCXL, so a System built by hand
// (without going through Default) still yields a usable CXL-PIM model.
func (c CXL) WithDefaults() CXL {
	d := DefaultCXL()
	if c.Devices == 0 {
		c.Devices = d.Devices
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = d.LinkLatency
	}
	if c.LinkBandwidth == 0 {
		c.LinkBandwidth = d.LinkBandwidth
	}
	if c.SwitchHops == 0 {
		c.SwitchHops = d.SwitchHops
	}
	if c.ReduceBW == 0 {
		c.ReduceBW = d.ReduceBW
	}
	if c.DeviceMemBytes == 0 {
		c.DeviceMemBytes = d.DeviceMemBytes
	}
	return c
}

// Validate reports fabric parameters that would make the CXL-PIM model
// meaningless.
func (c CXL) Validate() error {
	switch {
	case c.Devices < 1:
		return fmt.Errorf("config: cxl devices = %d, need >= 1", c.Devices)
	case c.LinkLatency < 0:
		return fmt.Errorf("config: cxl link latency %v < 0", c.LinkLatency)
	case c.LinkBandwidth <= 0:
		return fmt.Errorf("config: cxl link bandwidth %v <= 0", c.LinkBandwidth)
	case c.SwitchHops < 0:
		return fmt.Errorf("config: cxl switch hops %d < 0", c.SwitchHops)
	case c.ReduceBW <= 0:
		return fmt.Errorf("config: cxl reduce bandwidth %v <= 0", c.ReduceBW)
	case c.DeviceMemBytes <= 0:
		return fmt.Errorf("config: cxl device capacity %d <= 0", c.DeviceMemBytes)
	}
	return nil
}

// System is the complete simulated platform.
type System struct {
	Channels     int // memory channels; PIMnet connects DPUs within one channel
	Ranks        int // ranks (DIMMs) per channel
	ChipsPerRank int
	BanksPerChip int

	DPU    DPU
	Net    Net
	Host   Host
	Buffer BufferChip
	// CXL parameterizes the CXL-PIM backend; the DIMM-attached backends
	// ignore it.
	CXL CXL
}

// Default returns the paper's evaluation configuration (Tables II, IV, VI):
// one DDR4-2400 channel, 4 ranks x 8 chips x 8 banks = 256 DPUs.
func Default() System {
	return System{
		Channels:     1,
		Ranks:        4,
		ChipsPerRank: 8,
		BanksPerChip: 8,
		DPU: DPU{
			FreqHz:       350e6,
			Tasklets:     24,
			WRAMBytes:    64 << 10,
			IRAMBytes:    24 << 10,
			MRAMBytes:    64 << 20,
			PipelineOK:   11,
			AddCycles:    1,
			MulCycles:    32, // software-emulated 32-bit multiply (no native multiplier)
			LoadCycles:   1,
			StoreCycles:  1,
			ComputeScale: 1,
			DMABandwidth: 0.63 * GBps, // PrIM-measured sustained MRAM<->WRAM rate
			DMALatency:   sim.Cycles(77, 350e6),
		},
		Net: Net{
			BankChannels:  4,
			BankChannelBW: 0.7 * GBps,
			BankHopLat:    2 * sim.Nanosecond,
			ChipChannels:  2,
			ChipChannelBW: 1.05 * GBps,
			ChipHopLat:    4 * sim.Nanosecond,
			SwitchLat:     2 * sim.Nanosecond,
			RankBusBW:     16.8 * GBps,
			RankBusLat:    6 * sim.Nanosecond,
			SyncBankLat:   4 * sim.Nanosecond,
			SyncChipLat:   10 * sim.Nanosecond,
			SyncRankLat:   15 * sim.Nanosecond, // paper's worst-case propagation
		},
		Host: Host{
			PIMToCPUBW:      4.74 * GBps,
			CPUToPIMBW:      6.68 * GBps,
			BroadcastBW:     16.88 * GBps,
			ChannelBW:       19.2 * GBps,
			LaunchOverhead:  20 * sim.Microsecond,
			RankSetup:       2 * sim.Microsecond,
			ReduceBW:        8 * GBps,
			TransposeFactor: 2.5, // SDK byte-transposition on gather/scatter paths
		},
		Buffer: BufferChip{
			PIMBandwidth: 19.2 * GBps,
			ReduceBW:     19.2 * GBps,
			HopLatency:   20 * sim.Nanosecond,
		},
		CXL: DefaultCXL(),
	}
}

// UPMEMServer returns the real characterized server of Table II: 20 PIM
// DIMMs (2560 DPUs) across multiple channels. Used by the multi-channel
// scaling experiment.
func UPMEMServer() System {
	s := Default()
	s.Channels = 5
	s.Ranks = 4
	return s
}

// BanksPerRank returns DPUs per rank (chips x banks).
func (s System) BanksPerRank() int { return s.ChipsPerRank * s.BanksPerChip }

// DPUsPerChannel returns DPUs within one memory channel.
func (s System) DPUsPerChannel() int { return s.Ranks * s.BanksPerRank() }

// TotalDPUs returns DPUs across all channels.
func (s System) TotalDPUs() int { return s.Channels * s.DPUsPerChannel() }

// BankRingBW returns the effective per-bank collective bandwidth on the
// inter-bank ring. With four unidirectional channels (in/out x east/west) a
// bidirectional ring algorithm streams both directions concurrently, so the
// effective per-direction-pair bandwidth is 2 x the channel rate.
func (s System) BankRingBW() float64 {
	pairs := s.Net.BankChannels / 2
	if pairs < 1 {
		pairs = 1
	}
	return float64(pairs) / 2 * 2 * s.Net.BankChannelBW
}

// Validate reports configuration mistakes that would make simulation results
// meaningless (zero counts, non-positive bandwidths, broken scale factors).
func (s System) Validate() error {
	switch {
	case s.Channels < 1:
		return fmt.Errorf("config: channels = %d, need >= 1", s.Channels)
	case s.Ranks < 1:
		return fmt.Errorf("config: ranks = %d, need >= 1", s.Ranks)
	case s.ChipsPerRank < 1:
		return fmt.Errorf("config: chips/rank = %d, need >= 1", s.ChipsPerRank)
	case s.BanksPerChip < 1:
		return fmt.Errorf("config: banks/chip = %d, need >= 1", s.BanksPerChip)
	case s.DPU.FreqHz <= 0:
		return fmt.Errorf("config: DPU frequency %v <= 0", s.DPU.FreqHz)
	case s.DPU.WRAMBytes <= 0:
		return fmt.Errorf("config: WRAM size %d <= 0", s.DPU.WRAMBytes)
	case s.DPU.ComputeScale <= 0:
		return fmt.Errorf("config: compute scale %v <= 0", s.DPU.ComputeScale)
	case s.DPU.DMABandwidth <= 0:
		return fmt.Errorf("config: DMA bandwidth %v <= 0", s.DPU.DMABandwidth)
	case s.Net.BankChannelBW <= 0 || s.Net.ChipChannelBW <= 0 || s.Net.RankBusBW <= 0:
		return fmt.Errorf("config: non-positive PIMnet tier bandwidth")
	case s.Net.BankChannels < 2:
		return fmt.Errorf("config: bank channels = %d, ring needs >= 2", s.Net.BankChannels)
	case s.Net.StepOverhead < 0:
		return fmt.Errorf("config: step overhead %v < 0", s.Net.StepOverhead)
	case s.Host.PIMToCPUBW <= 0 || s.Host.CPUToPIMBW <= 0 || s.Host.BroadcastBW <= 0 || s.Host.ChannelBW <= 0:
		return fmt.Errorf("config: non-positive host bandwidth")
	case s.Host.TransposeFactor < 1:
		return fmt.Errorf("config: transpose factor %v < 1", s.Host.TransposeFactor)
	case s.Buffer.PIMBandwidth <= 0 || s.Buffer.ReduceBW <= 0:
		return fmt.Errorf("config: non-positive buffer-chip bandwidth")
	}
	return nil
}

// WithDPUs returns a copy of s resized (within one channel) to hold exactly n
// DPUs, preserving the packaging hierarchy fill order the paper uses for its
// scalability studies: banks within a chip first (8 -> one chip), then chips
// within a rank (64 -> one rank), then ranks (256 -> four ranks). n must be a
// power of two between 1 and DPUsPerChannel-capacity semantics of the
// default shape.
func (s System) WithDPUs(n int) (System, error) {
	if n < 1 {
		return s, fmt.Errorf("config: %d DPUs requested", n)
	}
	out := s
	switch {
	case n <= s.BanksPerChip:
		out.BanksPerChip = n
		out.ChipsPerRank = 1
		out.Ranks = 1
	case n <= s.BanksPerChip*s.ChipsPerRank:
		if n%s.BanksPerChip != 0 {
			return s, fmt.Errorf("config: %d DPUs not a multiple of %d banks/chip", n, s.BanksPerChip)
		}
		out.ChipsPerRank = n / s.BanksPerChip
		out.Ranks = 1
	default:
		perRank := s.BanksPerChip * s.ChipsPerRank
		if n%perRank != 0 {
			return s, fmt.Errorf("config: %d DPUs not a multiple of %d DPUs/rank", n, perRank)
		}
		out.Ranks = n / perRank
	}
	if out.DPUsPerChannel() != n {
		return s, fmt.Errorf("config: cannot shape %d DPUs with %dx%dx%d hierarchy",
			n, s.Ranks, s.ChipsPerRank, s.BanksPerChip)
	}
	return out, nil
}

// TierRow is one line of the paper's Table IV.
type TierRow struct {
	Tier        string
	Physical    string
	Channels    int
	WidthBits   int
	ChannelGBps float64
	Topology    string
	Router      string
}

// TierTable reproduces Table IV for the current configuration.
func (s System) TierTable() []TierRow {
	return []TierRow{
		{"inter-bank", "Bank I/O bus", s.Net.BankChannels, 16, s.Net.BankChannelBW / GBps, "ring", "PIMnet stop"},
		{"inter-chip", "DQ pins", s.Net.ChipChannels, 4, s.Net.ChipChannelBW / GBps, "crossbar", "Buffer chip"},
		{"inter-rank", "DDR bus", 1, 64, s.Net.RankBusBW / GBps, "bus", "Buffer chip"},
	}
}
