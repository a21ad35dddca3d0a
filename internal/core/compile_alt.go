package core

import (
	"fmt"

	"pimnet/internal/collective"
)

// FlatRingPlan compiles the ablation alternative to the hierarchical
// Table V AllReduce: one logical ring over all P DPUs in bank order,
// ignoring the packaging hierarchy. Chunks shrink to D/P and the schedule
// needs 2*(P-1) globally synchronized steps instead of the hierarchy's
// 2*(b-1) + 2*(c-1) + r. Ring successors that cross a chip boundary
// traverse the DQ ports; rank boundaries additionally cross the bus, which
// therefore carries several scheduled (serialized) transfers per step —
// legal for the compiler (the static schedule orders them) but exactly the
// kind of long, latency-exposed step chain the paper's hierarchical design
// avoids.
//
// DESIGN.md lists this as ablation A1; the experiment quantifies how the
// flat ring's 64x step count turns per-step overheads (sync guard, bus
// turnaround, skew) into the dominant cost as they grow.
func FlatRingPlan(n *Network, req collective.Request) (*Plan, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Pattern != collective.AllReduce && req.Pattern != collective.ReduceScatter {
		return nil, fmt.Errorf("core: flat ring plan supports AllReduce/ReduceScatter, not %v", req.Pattern)
	}
	topo := n.Topo
	P := topo.Nodes()
	if req.Nodes != P {
		return nil, fmt.Errorf("core: request scope %d != channel population %d", req.Nodes, P)
	}
	p := &Plan{Req: req, Topo: topo}
	D := req.BytesPerNode
	if P > 1 {
		rs := flatRingPhase(n, "flat-RS", D, true)
		p.Phases = append(p.Phases, rs)
		if req.Pattern == collective.AllReduce {
			p.Phases = append(p.Phases, flatRingPhase(n, "flat-AG", D, false))
		}
	}
	p.MemBytes = memStagingBytes(n, req)
	if err := p.CheckContention(); err != nil {
		return nil, err
	}
	return p, nil
}

// flatRingPhase emits P-1 steps of a whole-population ring pass. Every
// node sends one D/P chunk to its flat successor each step.
func flatRingPhase(n *Network, name string, D int64, reduce bool) Phase {
	topo := n.Topo
	P := topo.Nodes()
	ph := Phase{Name: name, Tier: TierRank} // dominated by the slowest tier it touches
	chunk := func(i int) int64 { return chunkBytes(D, P, i) }
	for s := 0; s < collective.RingSteps(P); s++ {
		st := Step{}
		var maxChunk int64
		for src := 0; src < P; src++ {
			dst := collective.RingSuccessor(P, src)
			bytes := chunk(collective.RSSendChunk(P, src, s))
			if bytes > maxChunk {
				maxChunk = bytes
			}
			sc, dc := topo.Coord(NodeID(src)), topo.Coord(NodeID(dst))
			switch {
			case sc.Rank == dc.Rank && sc.Chip == dc.Chip:
				st.Transfers = append(st.Transfers, Transfer{
					Link: n.link(roleRing, sc.Rank, sc.Chip, sc.Bank), Kind: KindRing, Bytes: bytes,
				})
			case sc.Rank == dc.Rank:
				st.Transfers = append(st.Transfers,
					Transfer{Link: n.link(roleChipSend, sc.Rank, sc.Chip, 0), Kind: KindCrossbarPort, Bytes: bytes},
					Transfer{Link: n.link(roleChipRecv, dc.Rank, dc.Chip, 0), Kind: KindCrossbarPort, Bytes: bytes},
				)
			default:
				// The bus carries one scheduled transaction per rank
				// boundary per step; they serialize on the shared wire, so
				// mark them as deliberately multiplexed.
				st.Transfers = append(st.Transfers,
					Transfer{Link: n.link(roleChipSend, sc.Rank, sc.Chip, 0), Kind: KindCrossbarPort, Bytes: bytes},
					Transfer{Link: n.link(roleBus, 0, 0, 0), Kind: KindRing, Bytes: bytes},
					Transfer{Link: n.link(roleChipRecv, dc.Rank, dc.Chip, 0), Kind: KindCrossbarPort, Bytes: bytes},
				)
			}
		}
		if reduce {
			st.ReduceBytesPerNode = maxChunk
		}
		ph.Steps = append(ph.Steps, st)
	}
	return ph
}

// StepOverhead configures a fixed per-step scheduling guard added to every
// lock-step boundary during Execute — the knob the flat-vs-hierarchical
// ablation turns to model per-step skew, bus turnaround and control
// distribution costs. Zero by default (the paper's deterministic timing
// needs no guard).
func (n *Network) SetStepOverhead(t int64) { n.stepOverheadPs = t }

// StepOverhead returns the configured per-step guard in picoseconds.
func (n *Network) StepOverhead() int64 { return n.stepOverheadPs }
