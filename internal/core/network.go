package core

import (
	"fmt"

	"pimnet/internal/config"
	"pimnet/internal/faults"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// Network instantiates the PIMnet resources for one memory channel:
//
//   - per chip, one effective ring channel per bank hop (the four 16-bit
//     unidirectional bank-I/O channels give every hop 2x the per-channel
//     rate when a bidirectional ring algorithm streams both directions);
//   - per chip, one DQ send channel and one DQ receive channel into the
//     buffer-chip crossbar;
//   - one half-duplex DDR bus shared by all ranks.
//
// All resources are sim.Links; the static scheduler guarantees by
// construction (and the contention checker verifies) that crossbar and bus
// steps never overlap conflicting transfers, which is what lets the
// hardware omit buffers and arbitration.
type Network struct {
	Sys  config.System
	Topo Topology

	// links is the link table every compiled Transfer indexes, laid out as
	// Topology.linkIndex describes: ring segments, then chip send channels,
	// then chip receive channels, then the shared DDR bus.
	links []*sim.Link

	// stepOverheadPs is an optional fixed guard charged at every lock-step
	// boundary (ablation knob; see SetStepOverhead).
	stepOverheadPs int64

	// Fault state. deadPath records stuck crossbar pairings (the internal
	// mux from one chip's ingress to another's egress is wedged); chipOrder,
	// when non-nil, is the logical->physical chip remap the recompiler
	// installed to exclude those pairings from the configured ring.
	deadPath  map[chipPath]bool
	chipOrder []int

	// scratch is the executor's reusable working set (see execScratch in
	// exec.go). It follows the network's single-owner contract: one scratch
	// per network, never shared across sweep workers.
	scratch execScratch

	// Observability. tracer receives the executor's structured events;
	// traceLinks gates per-transfer KindLinkBusy emission (trace.LevelLink),
	// precomputed so the executor's inner loop tests one bool. util is the
	// attached utilization aggregator when the tracer contains one,
	// resolved once so report plumbing needs no type switches. All three
	// are nil/false when tracing is off — the hot paths then run the exact
	// pre-instrumentation instruction sequence plus predictable branches,
	// preserving the 0 allocs/op contract of BENCH_baseline.json.
	tracer     trace.Tracer
	traceLinks bool
	util       *trace.Util
}

// chipPath identifies one configured crossbar pairing within a rank.
type chipPath struct{ rank, src, dst int }

// linkRole names one segment of the link table, in table order. Plan.Digest
// hashes the role, so these values are part of every pinned digest.
type linkRole uint8

const (
	roleRing     linkRole = iota // bank -> bank+1 ring segment of (rank, chip)
	roleChipSend                 // chip (rank, chip) -> crossbar
	roleChipRecv                 // crossbar -> chip (rank, chip)
	roleBus                      // shared multi-drop DDR bus
)

// linkCount returns the size of the topology's link table.
func (t Topology) linkCount() int { return t.Ranks*t.Chips*(t.Banks+2) + 1 }

// linkIndex returns the link-table index of ring segment bank of (rank,
// chip), of chip (rank, chip)'s send or receive channel, or of the bus. The
// table holds the ring segments as [rank][chip][bank], then the send
// channels as [rank][chip], then the receive channels likewise, then the
// bus. This is the table's only forward indexer; it is bounds-checked so a
// fault site cannot name a link outside the topology.
func (t Topology) linkIndex(role linkRole, rank, chip, bank int) (int32, error) {
	if rank < 0 || rank >= t.Ranks {
		return -1, fmt.Errorf("rank %d out of range [0,%d)", rank, t.Ranks)
	}
	if role != roleBus && (chip < 0 || chip >= t.Chips) {
		return -1, fmt.Errorf("chip %d out of range [0,%d)", chip, t.Chips)
	}
	chips := t.Ranks * t.Chips
	switch role {
	case roleRing:
		if bank < 0 || bank >= t.Banks {
			return -1, fmt.Errorf("ring segment %d out of range [0,%d)", bank, t.Banks)
		}
		return int32((rank*t.Chips+chip)*t.Banks + bank), nil
	case roleChipSend:
		return int32(chips*t.Banks + rank*t.Chips + chip), nil
	case roleChipRecv:
		return int32(chips*(t.Banks+1) + rank*t.Chips + chip), nil
	case roleBus:
		return int32(chips * (t.Banks + 2)), nil
	default:
		return -1, fmt.Errorf("unknown link role %d", role)
	}
}

// linkAt inverts linkIndex: the role and coordinates of table entry i, which
// the caller has bounds-checked. Send, receive and bus entries report bank 0,
// and the bus also rank and chip 0.
func (t Topology) linkAt(i int32) (role linkRole, rank, chip, bank int) {
	n, rings, chips := int(i), t.Nodes(), t.Ranks*t.Chips
	switch {
	case n < rings:
		return roleRing, n / (t.Chips * t.Banks), (n / t.Banks) % t.Chips, n % t.Banks
	case n < rings+chips:
		n -= rings
		return roleChipSend, n / t.Chips, n % t.Chips, 0
	case n < rings+2*chips:
		n -= rings + chips
		return roleChipRecv, n / t.Chips, n % t.Chips, 0
	default:
		return roleBus, 0, 0, 0
	}
}

// linkName renders table entry i as traces and error messages name it.
func (t Topology) linkName(i int32) string {
	switch role, r, c, b := t.linkAt(i); role {
	case roleRing:
		return fmt.Sprintf("ring[r%d,c%d,b%d]", r, c, b)
	case roleChipSend:
		return fmt.Sprintf("dq-send[r%d,c%d]", r, c)
	case roleChipRecv:
		return fmt.Sprintf("dq-recv[r%d,c%d]", r, c)
	default:
		return "ddr-bus"
	}
}

// NewNetwork builds the PIMnet resource graph for the configured channel.
func NewNetwork(sys config.System) (*Network, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	topo := Topology{Ranks: sys.Ranks, Chips: sys.ChipsPerRank, Banks: sys.BanksPerChip}
	n := &Network{Sys: sys, Topo: topo, links: make([]*sim.Link, topo.linkCount())}
	ringBW := sys.BankRingBW()
	for i := range n.links {
		bw, lat := sys.Net.ChipChannelBW, sys.Net.ChipHopLat
		switch role, _, _, _ := topo.linkAt(int32(i)); role {
		case roleRing:
			bw, lat = ringBW, sys.Net.BankHopLat
		case roleChipSend:
			lat += sys.Net.SwitchLat
		case roleBus:
			bw, lat = sys.Net.RankBusBW, sys.Net.RankBusLat
		}
		n.links[i] = sim.NewLink(topo.linkName(int32(i)), bw, lat)
	}
	return n, nil
}

// Reset clears all reservations so the network can run another experiment.
func (n *Network) Reset() {
	for _, l := range n.links {
		l.Reset()
	}
}

// SetTracer attaches a structured execution tracer at the given level;
// pass nil to detach. The executor then emits phase, synchronization, and
// staging spans, and — at trace.LevelLink — one KindLinkBusy per scheduled
// transfer. If the tracer contains a trace.Util aggregator (directly or
// via trace.Multi), it is resolved here so UtilSummary can surface
// link-utilization statistics without re-walking the tracer tree.
func (n *Network) SetTracer(t trace.Tracer, level trace.Level) {
	n.tracer = t
	n.traceLinks = t != nil && level >= trace.LevelLink
	n.util = trace.FindUtil(t)
}

// Tracer returns the attached tracer (nil when tracing is off).
func (n *Network) Tracer() trace.Tracer { return n.tracer }

// UtilSummary digests the attached utilization aggregator into per-tier
// occupancy statistics and a top-N contended-links table. It returns nil
// when no aggregator is attached — the nil is what keeps machine.Report
// comparable across untraced runs.
func (n *Network) UtilSummary() *trace.Summary {
	if n.util == nil {
		return nil
	}
	return n.util.Summary(trace.DefaultTopN)
}

// linkEndpoints resolves link i to its (from, to) trace coordinates: ring
// segments connect bank b to its clockwise successor, DQ channels connect
// a chip to the crossbar (-1), and the shared bus has no fixed endpoints.
func (n *Network) linkEndpoints(i int32) (int32, int32) {
	switch role, _, chip, bank := n.Topo.linkAt(i); role {
	case roleRing:
		return int32(bank), int32((bank + 1) % n.Topo.Banks)
	case roleChipSend:
		return int32(chip), -1
	case roleChipRecv:
		return -1, int32(chip)
	default:
		return -1, -1
	}
}

// physChip maps a logical chip position to the physical chip occupying it.
// The identity map until the recompiler installs a reordering to route
// around stuck crossbar pairings.
func (n *Network) physChip(chip int) int {
	if n.chipOrder == nil {
		return chip
	}
	return n.chipOrder[chip]
}

// link is the compiler's view of linkIndex: it maps the logical chip to the
// physical chip occupying it. Compiled coordinates are in range by
// construction, so an error here is a compiler bug.
func (n *Network) link(role linkRole, rank, chip, bank int) int32 {
	i, err := n.Topo.linkIndex(role, rank, n.physChip(chip), bank)
	if err != nil {
		panic(err)
	}
	return i
}

// chipPair emits the send/receive transfer pair of one crossbar hop from
// logical chip a to logical chip b within rank. When the crossbar pairing
// between the mapped physical chips is stuck (a hard fault), both transfers
// are marked Dead: the DQ channels themselves are healthy, but data routed
// through the wedged internal mux never arrives, which the executor turns
// into a detection timeout.
func (n *Network) chipPair(rank, a, b int, bytes int64) (Transfer, Transfer) {
	dead := n.deadPath[chipPath{rank, n.physChip(a), n.physChip(b)}]
	return Transfer{Link: n.link(roleChipSend, rank, a, 0), Kind: KindCrossbarPort, Bytes: bytes, Dead: dead},
		Transfer{Link: n.link(roleChipRecv, rank, b, 0), Kind: KindCrossbarPort, Bytes: bytes, Dead: dead}
}

// SyncLatency returns the READY/START propagation cost for a collective
// whose scope spans the given number of hierarchy levels: within one chip
// only the control interface unit participates; across chips the inter-chip
// switch aggregates; across ranks the inter-rank switch does (Section IV-C).
func (n *Network) SyncLatency() sim.Time {
	switch {
	case n.Topo.Ranks > 1:
		return n.Sys.Net.SyncRankLat
	case n.Topo.Chips > 1:
		return n.Sys.Net.SyncChipLat
	default:
		return n.Sys.Net.SyncBankLat
	}
}

// faultLink resolves a fault site to the index of the physical link it
// names.
func (n *Network) faultLink(f faults.Fault) (int32, error) {
	var role linkRole
	switch f.Site {
	case faults.SiteRing:
		role = roleRing
	case faults.SiteChipSend:
		role = roleChipSend
	case faults.SiteChipRecv:
		role = roleChipRecv
	case faults.SiteBus:
		role = roleBus
	default:
		return -1, fmt.Errorf("core: fault site %v does not name a link", f.Site)
	}
	i, err := n.Topo.linkIndex(role, f.Rank, f.Chip, f.Index)
	if err != nil {
		return -1, fmt.Errorf("core: fault %w", err)
	}
	return i, nil
}

// ApplyFault realizes one fault into the network. Straggler, corruption and
// sync-drop faults carry no network state (the fault model itself drives
// them at execution time) and are accepted as no-ops so a schedule can apply
// a whole model uniformly.
func (n *Network) ApplyFault(f faults.Fault) error {
	switch f.Class {
	case faults.LinkDegrade:
		i, err := n.faultLink(f)
		if err != nil {
			return err
		}
		if f.Factor <= 0 || f.Factor > 1 {
			return fmt.Errorf("core: degrade factor %v outside (0,1]", f.Factor)
		}
		n.links[i].Degrade(f.Factor)
		return nil
	case faults.LinkFail:
		if f.Site == faults.SiteChipPath {
			if f.Rank < 0 || f.Rank >= n.Topo.Ranks {
				return fmt.Errorf("core: fault rank %d out of range [0,%d)", f.Rank, n.Topo.Ranks)
			}
			if f.Chip < 0 || f.Chip >= n.Topo.Chips || f.Index < 0 || f.Index >= n.Topo.Chips {
				return fmt.Errorf("core: chip pair (%d,%d) out of range [0,%d)", f.Chip, f.Index, n.Topo.Chips)
			}
			if f.Chip == f.Index {
				return fmt.Errorf("core: chip pair (%d,%d) is not a crossbar pairing", f.Chip, f.Index)
			}
			if n.deadPath == nil {
				n.deadPath = make(map[chipPath]bool)
			}
			n.deadPath[chipPath{f.Rank, f.Chip, f.Index}] = true
			return nil
		}
		i, err := n.faultLink(f)
		if err != nil {
			return err
		}
		n.links[i].Fail()
		return nil
	case faults.Straggler, faults.TransientCorrupt, faults.SyncDrop:
		return nil
	default:
		return fmt.Errorf("core: unknown fault class %v", f.Class)
	}
}

// ClearFaults repairs every link, forgets stuck crossbar pairings, and
// drops any recompiled chip ordering, restoring the pristine topology.
func (n *Network) ClearFaults() {
	for _, l := range n.links {
		l.Restore()
	}
	n.deadPath = nil
	n.chipOrder = nil
}

// hasHardFaults reports whether any resource is hard-failed (as opposed to
// merely degraded): a failed link or a stuck crossbar pairing. Hard faults
// require recompilation; soft faults only slow the existing plan down.
func (n *Network) hasHardFaults() bool {
	if len(n.deadPath) > 0 {
		return true
	}
	for _, l := range n.links {
		if l.Failed() {
			return true
		}
	}
	return false
}

// Pristine reports whether the network is in its as-built state: no stuck
// crossbar pairings, no recompiled chip ordering, and every link healthy.
// Only pristine networks may serve or populate the shared plan cache.
func (n *Network) Pristine() bool {
	if len(n.deadPath) > 0 || n.chipOrder != nil {
		return false
	}
	for _, l := range n.links {
		if l.Faulty() {
			return false
		}
	}
	return true
}

// ScaleBankBandwidth rewrites every ring segment for a new per-channel
// inter-bank bandwidth (Fig. 14a sensitivity sweep).
func (n *Network) ScaleBankBandwidth(perChannelBW float64) {
	n.Sys.Net.BankChannelBW = perChannelBW
	eff := n.Sys.BankRingBW()
	for _, l := range n.links[:n.Topo.Nodes()] { // one ring segment per bank
		l.SetBandwidth(eff)
	}
}

// ScaleGlobalBandwidth rewrites the inter-chip channels and the rank bus by
// a common factor (Fig. 14b sensitivity sweep).
func (n *Network) ScaleGlobalBandwidth(factor float64) {
	n.Sys.Net.ChipChannelBW *= factor
	n.Sys.Net.RankBusBW *= factor
	bus := len(n.links) - 1
	for _, l := range n.links[n.Topo.Nodes():bus] {
		l.SetBandwidth(n.Sys.Net.ChipChannelBW)
	}
	n.links[bus].SetBandwidth(n.Sys.Net.RankBusBW)
}
