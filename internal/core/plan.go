package core

import (
	"fmt"

	"pimnet/internal/collective"
	"pimnet/internal/metrics"
)

// Tier identifies which PIMnet tier a phase runs on.
type Tier int

// Tiers in packaging order.
const (
	TierBank Tier = iota
	TierChip
	TierRank
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierBank:
		return "inter-bank"
	case TierChip:
		return "inter-chip"
	case TierRank:
		return "inter-rank"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Component maps a tier to its breakdown component.
func (t Tier) Component() metrics.Component {
	switch t {
	case TierBank:
		return metrics.InterBank
	case TierChip:
		return metrics.InterChip
	case TierRank:
		return metrics.InterRank
	default:
		panic(fmt.Sprintf("core: unknown tier %d", int(t)))
	}
}

// Kind classifies a resource for contention checking. It is one byte so a
// Transfer packs into 16 bytes.
type Kind uint8

// Resource kinds. Ring segments may be time-multiplexed within a step (the
// static schedule serializes flows deliberately, e.g. the all-to-all shift
// steps); crossbar ports and the bus must carry at most one transfer per
// step — that is the hardware property that lets PIMnet omit buffers and
// arbitration.
const (
	KindRing Kind = iota
	KindCrossbarPort
	KindBus
)

// Transfer is one scheduled link reservation. Link indexes the link table
// of the plan's topology (Topology.linkIndex), so a plan runs unchanged on
// every network built for that topology. The fields are ordered so the
// struct packs into 16 bytes: a compiled plan holds up to ~10^5 of them.
type Transfer struct {
	Link int32
	Kind Kind
	// Dead marks a transfer whose compiled route traverses a hard-failed
	// resource (a stuck crossbar pairing): the data never arrives, and the
	// executor models it as a transfer that never completes so the phase
	// timeout guard can catch it. Dead transfers still occupy their port in
	// the contention check — the hardware does drive the channel.
	Dead  bool `json:",omitempty"`
	Bytes int64
}

// Step is a synchronized communication step: all transfers start together
// once the previous step has fully completed (lock-step static schedule).
type Step struct {
	Transfers []Transfer
	// ReduceBytesPerNode is the volume each receiving DPU combines into its
	// local buffer during this step (zero for non-reducing patterns). The
	// DPU streams the reduction concurrently with reception, so a step
	// lasts max(transfer, reduce).
	ReduceBytesPerNode int64
}

// Phase is a sequence of steps on one tier. A pipelined phase releases all
// steps together and lets the shared resources serialize them in schedule
// order (the buffer chip streams the next pair's data off the DQ pins while
// the bus carries the current pair); a non-pipelined phase is lock-step.
type Phase struct {
	Name      string
	Tier      Tier
	Steps     []Step
	Pipelined bool
}

// Plan is a fully compiled, statically scheduled collective. It depends
// only on its topology, never on one Network instance, so one Plan runs
// unchanged on every network of that topology. Executing a plan only reads
// it; only a fresh PlanFor result may be mutated (rerouteRings does, for a
// faulted network).
type Plan struct {
	Req    collective.Request
	Topo   Topology
	Phases []Phase
	// MemBytes is the MRAM<->WRAM DMA staging volume per DPU charged when
	// the payload exceeds the WRAM communication buffer (the paper's "Mem"
	// overhead).
	MemBytes int64
	// verified memoizes a successful CheckContention so replays skip the
	// per-step bookkeeping. It is set before a plan is shared. Any code that
	// mutates Phases after construction must clear it (rerouteRings does).
	verified bool
}

// CheckContention verifies the static-schedule property: within any single
// step, every crossbar port and the bus appear in at most one transfer. It
// also checks that every transfer names a link of the plan's topology. A
// violation means the compiler produced a schedule the bufferless hardware
// could not execute; it is always a bug. A pass is memoized on the plan, so
// the executor's defensive re-check is free for compiled plans.
//
// One dense counter over the link table serves every step: a step counts
// its transfers into it and then zeroes exactly the entries it touched.
func (p *Plan) CheckContention() error {
	links := int32(p.Topo.linkCount())
	seen := make([]int32, max(links, 0)) // an invalid topology fails every bounds check
	for pi, ph := range p.Phases {
		for si, st := range ph.Steps {
			for _, tr := range st.Transfers {
				if tr.Bytes < 0 {
					return fmt.Errorf("core: phase %d (%s) step %d: negative transfer", pi, ph.Name, si)
				}
				if tr.Link < 0 || tr.Link >= links {
					return fmt.Errorf("core: phase %d (%s) step %d: link %d outside topology %v",
						pi, ph.Name, si, tr.Link, p.Topo)
				}
				seen[tr.Link]++
				if tr.Kind != KindRing && seen[tr.Link] > 1 {
					return fmt.Errorf("core: phase %d (%s) step %d: %s scheduled %d times in one step",
						pi, ph.Name, si, p.Topo.linkName(tr.Link), seen[tr.Link])
				}
			}
			for _, tr := range st.Transfers {
				seen[tr.Link] = 0
			}
		}
	}
	p.verified = true
	return nil
}
