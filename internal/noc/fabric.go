package noc

import (
	"pimnet/internal/config"
	"pimnet/internal/sim"
)

// tiers are the fabric's rates and latencies.
type tiers struct {
	ring, chip, bus float64  // bytes/s: one ring segment, one DQ port, the shared bus
	hop             sim.Time // wire latency charged on every hop
	start           sim.Time // static mode's READY/START propagation
}

// tableIV is the paper's Table IV as internal/config states it for the
// link-reservation model (core), read once here so the two network models
// share every rate. Two fidelity differences from core are kept, so the
// NoC golden corpus and the Fig. 13 / A4 tables stay byte-identical:
//
//   - every hop (ring segment, DQ port, bus) costs one wire latency, the
//     inter-chip hop's; core charges each tier its own (bank hop, chip hop
//     plus switch, bus);
//   - static mode's START costs the whole-PIMnet READY/START propagation
//     for every shape, where core.Network.SyncLatency scopes it to the
//     tiers the shape spans.
var tableIV = func() tiers {
	sys := config.Default()
	return tiers{
		ring:  sys.BankRingBW(),
		chip:  sys.Net.ChipChannelBW,
		bus:   sys.Net.RankBusBW,
		hop:   sys.Net.ChipHopLat,
		start: sys.Net.SyncRankLat,
	}
}()

// The PIMnet hop graph, flattened. Hops are not objects: a hop is an int32
// id into dense arenas, laid out so every structural property — tier, rate,
// coordinates, display name — is derivable from the id alone:
//
//	[0, ranks*chips*banks)      clockwise ring segments, (rank,chip) major
//	[outBase, outBase+ports)    DQ send ports, one per (rank,chip)
//	[inBase, inBase+ports)      DQ receive ports
//	busID                       the shared inter-rank bus
//
// Routing never walks pointers either: every (src,dst) path is a contiguous
// window of the shared path table, referenced by (offset, length). Intra-chip
// paths alias windows of per-chip doubled rings (a clockwise segment of any
// start and length is contiguous in a doubled ring); inter-chip paths alias
// fixed 3-slot port-pair segments. The table is built once per fabric; the
// per-packet cost of routing is two int32 loads.
type fabric struct {
	cfg                 Config
	ranks, chips, banks int32
	ports               int32 // ranks*chips
	outBase             int32
	inBase              int32
	busID               int32
	numHops             int32
	pairBase            int32 // start of the port-pair section of paths
	paths               []int32
	ttFull              []sim.Time // service time of a full packet, per hop
}

func buildFabric(cfg Config) *fabric {
	r, c, b := int32(cfg.Ranks), int32(cfg.Chips), int32(cfg.Banks)
	p := r * c
	f := &fabric{
		cfg:   cfg,
		ranks: r, chips: c, banks: b, ports: p,
		outBase: p * b,
	}
	f.inBase = f.outBase + p
	f.busID = f.inBase + p
	f.numHops = f.busID + 1
	f.pairBase = p * 2 * b
	f.paths = make([]int32, int(f.pairBase)+int(3*p*p))

	// Doubled bank rings: chip port q's ring occupies [q*2b, (q+1)*2b), so
	// the clockwise segment starting at bank s with length d is the window
	// [q*2b+s, q*2b+s+d) for any s < b, d <= b.
	for q := int32(0); q < p; q++ {
		ringBase := q * b
		off := q * 2 * b
		for i := int32(0); i < 2*b; i++ {
			f.paths[off+i] = ringBase + i%b
		}
	}
	// Port-pair segments: fixed 3-slot windows [out, in, -] for same-rank
	// pairs and [out, bus, in] across ranks. The third slot of a same-rank
	// segment is never referenced (length 2).
	for p1 := int32(0); p1 < p; p1++ {
		for p2 := int32(0); p2 < p; p2++ {
			if p1 == p2 {
				continue
			}
			off := f.pairBase + (p1*p+p2)*3
			if p1/c == p2/c { // same rank: crossbar only
				f.paths[off] = f.outBase + p1
				f.paths[off+1] = f.inBase + p2
			} else {
				f.paths[off] = f.outBase + p1
				f.paths[off+1] = f.busID
				f.paths[off+2] = f.inBase + p2
			}
		}
	}
	// Almost every packet is a full PacketBytes segment (only a message's
	// tail can be short), so the common-case service time is one table load
	// instead of a float divide + ceil per hop.
	f.ttFull = make([]sim.Time, f.numHops)
	for h := int32(0); h < f.numHops; h++ {
		f.ttFull[h] = sim.TransferTime(cfg.PacketBytes, f.rate(h))
	}
	return f
}

// rate returns the service bandwidth of hop h, derived from the id layout.
func (f *fabric) rate(h int32) float64 {
	switch {
	case h < f.outBase:
		return tableIV.ring
	case h < f.busID:
		return tableIV.chip
	default:
		return tableIV.bus
	}
}

// coord splits a node id.
func (f *fabric) coord(n int) (rank, chip, bank int) {
	b := f.cfg.Banks
	c := f.cfg.Chips
	return n / (c * b), (n / b) % c, n % b
}

// path returns the hop window from src to dst following PIMnet routing:
// clockwise ring within a chip, DQ ports and the crossbar between chips,
// the bus between ranks. Remote data enters the destination bank through
// the direct WRAM datapath (Fig. 6a), so no destination-ring hops. A self
// message still crosses its own ring stop once.
func (f *fabric) path(src, dst int) (off, length int32) {
	sr, sc, sb := f.coord(src)
	dr, dc, db := f.coord(dst)
	p1 := int32(sr)*f.chips + int32(sc)
	switch {
	case sr == dr && sc == dc:
		dist := int32((db - sb + f.cfg.Banks) % f.cfg.Banks)
		if dist == 0 {
			dist = 1
		}
		return p1*2*f.banks + int32(sb), dist
	case sr == dr:
		p2 := int32(dr)*f.chips + int32(dc)
		return f.pairBase + (p1*f.ports+p2)*3, 2
	default:
		p2 := int32(dr)*f.chips + int32(dc)
		return f.pairBase + (p1*f.ports+p2)*3, 3
	}
}
