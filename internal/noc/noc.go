// Package noc is a packet-granularity, cycle-faithful network simulator of
// the PIMnet topology, built to reproduce the paper's flow-control study
// (Fig. 13): the same physical network run under
//
//   - credit-based flow control — every DPU injects as soon as its own
//     compute finishes; hops have finite input buffers, so contention at
//     the crossbar ports and the bus causes queueing and backpressure
//     (head-of-line blocking), exactly what a conventional buffered,
//     arbitrated router would experience; and
//   - PIM-controlled static scheduling — all DPUs synchronize (waiting for
//     the slowest) and launch on one global START. As modelled here, that
//     START is the only difference: after it, every node runs the same
//     dependency gating over the same buffered, arbitrated hops as credit
//     mode, so static runs can queue and their finish time depends on
//     buffer depth. A compiled, contention-free static schedule is open
//     work (ROADMAP, "Static mode runs a compiled, contention-free
//     schedule").
//
// The paper's result: the two are within ~1% for AllReduce (neighbor-only
// ring traffic barely contends), while for All-to-All the statically
// scheduled network is ~19% faster because independent point-to-point
// flows collide heavily in the inter-chip crossbar under credit-based
// flow control. The paper drove this with per-DPU execution times measured
// on the real UPMEM system; SkewedFinishTimes generates an equivalent
// deterministic skew profile.
//
// Beyond the collectives, the package drives the fabric with synthetic
// open-loop traffic (uniform-random plus the adversarial hotspot,
// transpose, tornado, and bursty multi-tenant patterns) and with scripted
// adversarial permutation workloads under both flow-control modes — the
// standard NoC-evaluation methodology at full-machine scale.
//
// The fabric's tier rates and latencies are the paper's Table IV as
// internal/config states it, the same values the link-reservation model
// (core) charges; Config carries only the shape and the two knobs core
// lacks, hop buffer depth and packet size.
//
// The simulator core is a flat, index-based design built for that scale:
// hops live in one arena addressed by int32 ids, per-hop queues are ring
// buffers, waiter lists are intrusive index chains, packet paths are
// offsets into a shared precomputed path table, and events are plain values
// (a kind and two int32 operands) on one sim.Engine queue, dispatched by a
// single switch — the steady-state packet path allocates nothing (see
// DESIGN.md §15).
package noc

import (
	"fmt"
	"math/rand"

	"pimnet/internal/sim"
)

// Mode selects the flow-control policy.
type Mode int

// Flow-control policies of Fig. 13.
const (
	CreditBased Mode = iota
	StaticScheduled
)

// String names the mode.
func (m Mode) String() string {
	if m == CreditBased {
		return "credit-based"
	}
	return "PIM-controlled"
}

// ParseMode resolves a flow-control mode name ("credit" / "credit-based" or
// "static" / "pim-controlled").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "credit", "credit-based":
		return CreditBased, nil
	case "static", "pim-controlled", "PIM-controlled":
		return StaticScheduled, nil
	}
	return 0, fmt.Errorf("noc: unknown mode %q (want credit or static)", s)
}

// Config sizes the simulated network (one memory channel) and sets the two
// knobs the packet model has that the link-reservation model (core) does
// not. The fabric's rates and latencies are not part of it: they are
// Table IV as internal/config states it (see tableIV).
type Config struct {
	Ranks, Chips, Banks int
	BufferPackets       int   // input-buffer depth per hop, in packets (both modes)
	PacketBytes         int64 // segmentation size
}

// DefaultConfig returns the given shape with 2-packet hop buffers and
// 1 KiB packets.
func DefaultConfig(ranks, chips, banks int) Config {
	return Config{
		Ranks: ranks, Chips: chips, Banks: banks,
		BufferPackets: 2,
		PacketBytes:   1024,
	}
}

// Nodes returns the DPU population.
func (c Config) Nodes() int { return c.Ranks * c.Chips * c.Banks }

func (c Config) validate() error {
	switch {
	case c.Ranks < 1 || c.Chips < 1 || c.Banks < 1:
		return fmt.Errorf("noc: topology %dx%dx%d", c.Ranks, c.Chips, c.Banks)
	case c.BufferPackets < 1:
		return fmt.Errorf("noc: buffer depth %d", c.BufferPackets)
	case c.PacketBytes < 1:
		return fmt.Errorf("noc: packet size %d", c.PacketBytes)
	}
	return nil
}

// Result summarizes one simulation.
type Result struct {
	Finish           sim.Time // completion of the whole collective
	PacketsDelivered int64
	MaxQueue         int // deepest observed hop queue (contention witness)
}

// SkewedFinishTimes generates deterministic per-DPU compute completion
// times with a heavy right tail (a few stragglers), standing in for the
// real per-DPU execution times the paper measured on UPMEM.
func SkewedFinishTimes(n int, base, spread sim.Time, seed int64) []sim.Time {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.Time, n)
	for i := range out {
		u := rng.Float64()
		// Square the uniform draw: most nodes near base, a tail at +spread.
		out[i] = base + sim.Time(float64(spread)*u*u)
	}
	return out
}
