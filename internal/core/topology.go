// Package core implements the paper's contribution: the PIMnet multi-tier
// interconnect. It models the three network tiers (inter-bank ring,
// inter-chip crossbar, inter-rank bus), compiles collective requests into
// statically scheduled, contention-checked transfer plans (Table V), and
// generates the per-bank addresses and timing offsets of the paper's
// Algorithm 1. The executor charges every transfer against the shared
// tier resources, producing the latency breakdowns the evaluation reports.
package core

import "fmt"

// NodeID is a flat DPU index within one memory channel:
// ((rank*chips)+chip)*banks + bank.
type NodeID int

// Coord locates a PIM bank in the packaging hierarchy.
type Coord struct {
	Rank, Chip, Bank int
}

// Topology is the packaging hierarchy of one memory channel.
type Topology struct {
	Ranks, Chips, Banks int
}

// Nodes returns the DPU count.
func (t Topology) Nodes() int { return t.Ranks * t.Chips * t.Banks }

// ID maps a coordinate to its flat node index.
func (t Topology) ID(c Coord) NodeID {
	if c.Rank < 0 || c.Rank >= t.Ranks || c.Chip < 0 || c.Chip >= t.Chips ||
		c.Bank < 0 || c.Bank >= t.Banks {
		panic(fmt.Sprintf("core: coordinate %+v outside topology %+v", c, t))
	}
	return NodeID((c.Rank*t.Chips+c.Chip)*t.Banks + c.Bank)
}

// Coord maps a flat node index to its coordinate.
func (t Topology) Coord(id NodeID) Coord {
	n := int(id)
	if n < 0 || n >= t.Nodes() {
		panic(fmt.Sprintf("core: node %d outside topology %+v", n, t))
	}
	return Coord{
		Rank: n / (t.Chips * t.Banks),
		Chip: (n / t.Banks) % t.Chips,
		Bank: n % t.Banks,
	}
}

// String renders the topology as "RxCxB".
func (t Topology) String() string {
	return fmt.Sprintf("%dx%dx%d", t.Ranks, t.Chips, t.Banks)
}
