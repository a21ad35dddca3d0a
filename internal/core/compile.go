package core

import (
	"fmt"

	"pimnet/internal/collective"
)

// chunkBytes returns the size of balanced chunk i when total bytes are split
// n ways, using the same floor split as the data interpreter.
func chunkBytes(total int64, n, i int) int64 {
	lo, hi := collective.ChunkBounds(int(total), n, i)
	return int64(hi - lo)
}

// ownedShardBytes returns the byte count of the reduced-vector shard owned
// by (chip, bank) after the hierarchical reduce-scatter phases.
func ownedShardBytes(total int64, chips, banks, chip, bank int) int64 {
	lo, hi := collective.OwnedShard(int(total), chips, banks, chip, bank)
	return int64(hi - lo)
}

// chipShardBytes returns the total shard bytes owned by one chip (the sum
// over its banks), the volume it contributes to each inter-rank broadcast.
func chipShardBytes(total int64, chips, banks, chip int) int64 {
	var s int64
	for b := 0; b < banks; b++ {
		s += ownedShardBytes(total, chips, banks, chip, b)
	}
	return s
}

// PlanFor compiles a collective request into a statically scheduled PIMnet
// plan following the paper's Table V tier mappings. The request's scope must
// equal the network's full channel population: PIMnet interconnects the DPUs
// of one memory channel (Section III-B); multi-channel and sub-channel
// scoping are handled by the machine layer.
func PlanFor(n *Network, req collective.Request) (*Plan, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	topo := n.Topo
	if req.Nodes != topo.Nodes() {
		return nil, fmt.Errorf("core: request scope %d != channel population %d", req.Nodes, topo.Nodes())
	}
	p := &Plan{Req: req, Topo: topo}
	D := req.BytesPerNode
	switch req.Pattern {
	case collective.ReduceScatter:
		p.Phases = appendReducePhases(make([]Phase, 0, 3), n, D)
	case collective.AllReduce:
		p.Phases = appendReducePhases(make([]Phase, 0, 5), n, D)
		p.Phases = appendGatherBackPhases(p.Phases, n, D)
	case collective.AllGather:
		p.Phases = allGatherPhases(n, D)
	case collective.AllToAll:
		p.Phases = allToAllPhases(n, D)
	case collective.Broadcast:
		p.Phases = broadcastPhases(n, D)
	case collective.Gather, collective.Reduce:
		p.Phases = funnelPhases(n, D, req.Pattern == collective.Reduce)
	default:
		return nil, fmt.Errorf("core: pattern %v not schedulable", req.Pattern)
	}
	p.MemBytes = memStagingBytes(n, req)
	if err := p.CheckContention(); err != nil {
		return nil, err
	}
	return p, nil
}

// memStagingBytes returns the MRAM<->WRAM DMA volume per DPU. Collectives
// operate out of WRAM (Section V-A). The reducing patterns combine in place
// and all-to-all swaps blocks pair-wise without intermediate storage
// (Section V-D), so their working set is just the payload; only when it
// exceeds the usable scratchpad is the data staged from the DRAM bank and
// written back — the paper's "Mem" overhead, visible for CC, EMB_Synth,
// SpMV and Join in Fig. 11. Gathering patterns additionally spill their
// population-sized result.
func memStagingBytes(n *Network, req collective.Request) int64 {
	usable := n.Sys.DPU.WRAMBytes / 2
	D := req.BytesPerNode
	switch req.Pattern {
	case collective.AllGather, collective.Gather, collective.Reduce:
		result := D * int64(req.Nodes)
		if result <= usable {
			return 0
		}
		return D + result // read the contribution in, spill the result out
	default:
		if D <= usable {
			return 0
		}
		return 2 * D // stream in, write back in place
	}
}

// appendReducePhases emits the reduce-scatter pipeline of Table V:
// Ring(inter-bank) -> Ring(inter-chip) -> Broadcast(inter-rank).
func appendReducePhases(phases []Phase, n *Network, D int64) []Phase {
	topo := n.Topo
	b, c, r := topo.Banks, topo.Chips, topo.Ranks

	// Phase 1: ring reduce-scatter among the banks of every chip, all chips
	// in parallel — the PIM bandwidth parallelism the paper exploits.
	if b > 1 {
		ph := Phase{Name: "bank-RS", Tier: TierBank, Steps: make([]Step, 0, collective.RingSteps(b))}
		for s := 0; s < collective.RingSteps(b); s++ {
			st := Step{Transfers: make([]Transfer, 0, r*c*b)}
			var maxRecv int64
			for rank := 0; rank < r; rank++ {
				for chip := 0; chip < c; chip++ {
					for bank := 0; bank < b; bank++ {
						send := chunkBytes(D, b, collective.RSSendChunk(b, bank, s))
						st.Transfers = append(st.Transfers, Transfer{
							Link: n.link(roleRing, rank, chip, bank), Kind: KindRing, Bytes: send,
						})
						recv := chunkBytes(D, b, collective.RSRecvChunk(b, bank, s))
						if recv > maxRecv {
							maxRecv = recv
						}
					}
				}
			}
			st.ReduceBytesPerNode = maxRecv
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}

	// Phase 2: ring reduce-scatter across the chips of every rank. Each
	// chip's banks stream their owned bank-chunk sub-chunks through the
	// chip's single DQ send channel into the crossbar; the crossbar is
	// configured as a ring, so each send and each receive port carries
	// exactly one aggregated transfer per step.
	if c > 1 {
		ph := Phase{Name: "chip-RS", Tier: TierChip, Steps: make([]Step, 0, collective.RingSteps(c))}
		for s := 0; s < collective.RingSteps(c); s++ {
			st := Step{Transfers: make([]Transfer, 0, 2*r*c)}
			var maxRecvPerNode int64
			for rank := 0; rank < r; rank++ {
				for chip := 0; chip < c; chip++ {
					var bytes int64
					for bank := 0; bank < b; bank++ {
						owned := chunkBytes(D, b, collective.OwnedAfterRS(b, bank))
						bytes += chunkBytes(owned, c, collective.RSSendChunk(c, chip, s))
					}
					succ := collective.RingSuccessor(c, chip)
					snd, rcv := n.chipPair(rank, chip, succ, bytes)
					st.Transfers = append(st.Transfers, snd, rcv)
					perNode := chunkBytes(chunkBytes(D, b, 0)+1, c, 0)
					if perNode > maxRecvPerNode {
						maxRecvPerNode = perNode
					}
				}
			}
			st.ReduceBytesPerNode = maxRecvPerNode
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}

	// Phase 3: inter-rank broadcast reduction on the shared DDR bus. Each
	// rank in turn broadcasts its reduced shard set (exactly D bytes per
	// rank); the matching DPUs of every other rank snoop the bus through
	// their chip receive channels and reduce. One broadcast per step keeps
	// the half-duplex bus single-mastered.
	if r > 1 {
		ph := Phase{Name: "rank-bcast-reduce", Tier: TierRank, Steps: make([]Step, 0, r)}
		for src := 0; src < r; src++ {
			st := Step{Transfers: make([]Transfer, 0, 1+c+c*(r-1))}
			st.Transfers = append(st.Transfers, Transfer{Link: n.link(roleBus, 0, 0, 0), Kind: KindBus, Bytes: D})
			var maxShard int64
			for chip := 0; chip < c; chip++ {
				cs := chipShardBytes(D, c, b, chip)
				st.Transfers = append(st.Transfers, Transfer{
					Link: n.link(roleChipSend, src, chip, 0), Kind: KindCrossbarPort, Bytes: cs,
				})
				for rank := 0; rank < r; rank++ {
					if rank == src {
						continue
					}
					st.Transfers = append(st.Transfers, Transfer{
						Link: n.link(roleChipRecv, rank, chip, 0), Kind: KindCrossbarPort, Bytes: cs,
					})
				}
				for bank := 0; bank < b; bank++ {
					if sh := ownedShardBytes(D, c, b, chip, bank); sh > maxShard {
						maxShard = sh
					}
				}
			}
			st.ReduceBytesPerNode = maxShard
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}
	return phases
}

// appendGatherBackPhases emits the all-gather half of AllReduce: the exact
// mirror of the reduce phases with identical volumes and no reduction. The
// inter-rank hop is free — the bus broadcast-reduce already left every rank
// holding the reduced shards (Table V lists a single inter-rank stage).
func appendGatherBackPhases(phases []Phase, n *Network, D int64) []Phase {
	topo := n.Topo
	b, c, r := topo.Banks, topo.Chips, topo.Ranks

	if c > 1 {
		ph := Phase{Name: "chip-AG", Tier: TierChip, Steps: make([]Step, 0, collective.RingSteps(c))}
		for s := 0; s < collective.RingSteps(c); s++ {
			st := Step{Transfers: make([]Transfer, 0, 2*r*c)}
			for rank := 0; rank < r; rank++ {
				for chip := 0; chip < c; chip++ {
					var bytes int64
					for bank := 0; bank < b; bank++ {
						owned := chunkBytes(D, b, collective.OwnedAfterRS(b, bank))
						bytes += chunkBytes(owned, c, collective.AGSendChunk(c, chip, s))
					}
					succ := collective.RingSuccessor(c, chip)
					snd, rcv := n.chipPair(rank, chip, succ, bytes)
					st.Transfers = append(st.Transfers, snd, rcv)
				}
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}

	if b > 1 {
		ph := Phase{Name: "bank-AG", Tier: TierBank, Steps: make([]Step, 0, collective.RingSteps(b))}
		for s := 0; s < collective.RingSteps(b); s++ {
			st := Step{Transfers: make([]Transfer, 0, r*c*b)}
			for rank := 0; rank < r; rank++ {
				for chip := 0; chip < c; chip++ {
					for bank := 0; bank < b; bank++ {
						send := chunkBytes(D, b, collective.AGSendChunk(b, bank, s))
						st.Transfers = append(st.Transfers, Transfer{
							Link: n.link(roleRing, rank, chip, bank), Kind: KindRing, Bytes: send,
						})
					}
				}
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}
	return phases
}

// allGatherPhases emits a standalone AllGather (Table V: Broadcast(rank) ->
// Ring(chip) -> Ring(bank)). Each node contributes D; every node ends with
// the P*D concatenation, so unlike the AllReduce mirror the volumes grow
// with the population.
func allGatherPhases(n *Network, D int64) []Phase {
	topo := n.Topo
	b, c, r := topo.Banks, topo.Chips, topo.Ranks
	P := int64(topo.Nodes())
	phases := make([]Phase, 0, 3)

	if r > 1 {
		ph := Phase{Name: "rank-bcast", Tier: TierRank, Steps: make([]Step, 0, r)}
		rankBytes := int64(b*c) * D
		for src := 0; src < r; src++ {
			st := Step{Transfers: make([]Transfer, 0, 1+c+c*(r-1))}
			st.Transfers = append(st.Transfers, Transfer{Link: n.link(roleBus, 0, 0, 0), Kind: KindBus, Bytes: rankBytes})
			for chip := 0; chip < c; chip++ {
				st.Transfers = append(st.Transfers, Transfer{
					Link: n.link(roleChipSend, src, chip, 0), Kind: KindCrossbarPort, Bytes: int64(b) * D,
				})
				for rank := 0; rank < r; rank++ {
					if rank == src {
						continue
					}
					st.Transfers = append(st.Transfers, Transfer{
						Link: n.link(roleChipRecv, rank, chip, 0), Kind: KindCrossbarPort, Bytes: rankBytes,
					})
				}
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}

	if c > 1 {
		ph := Phase{Name: "chip-ring-AG", Tier: TierChip, Steps: make([]Step, 0, collective.RingSteps(c))}
		for s := 0; s < collective.RingSteps(c); s++ {
			st := Step{Transfers: make([]Transfer, 0, 2*r*c)}
			for rank := 0; rank < r; rank++ {
				for chip := 0; chip < c; chip++ {
					succ := collective.RingSuccessor(c, chip)
					bytes := int64(b) * D
					snd, rcv := n.chipPair(rank, chip, succ, bytes)
					st.Transfers = append(st.Transfers, snd, rcv)
				}
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}

	if b > 1 {
		ph := Phase{Name: "bank-ring-AG", Tier: TierBank, Steps: make([]Step, 0, collective.RingSteps(b))}
		total := P * D
		for s := 0; s < collective.RingSteps(b); s++ {
			st := Step{Transfers: make([]Transfer, 0, r*c*b)}
			for rank := 0; rank < r; rank++ {
				for chip := 0; chip < c; chip++ {
					for bank := 0; bank < b; bank++ {
						st.Transfers = append(st.Transfers, Transfer{
							Link: n.link(roleRing, rank, chip, bank), Kind: KindRing,
							Bytes: chunkBytes(total, b, collective.AGSendChunk(b, bank, s)),
						})
					}
				}
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}
	return phases
}

// allToAllPhases emits the personalized exchange (Table V: Ring(bank) ->
// Permutation(chip) -> Unicast(rank)). Every node's payload D is split into
// P destination blocks.
func allToAllPhases(n *Network, D int64) []Phase {
	topo := n.Topo
	b, c, r := topo.Banks, topo.Chips, topo.Ranks
	P := topo.Nodes()
	phases := make([]Phase, 0, 3)
	blk := func(dst int) int64 { return chunkBytes(D, P, dst) }

	// Phase 1: intra-chip exchange on the bank ring. Shift schedule: at
	// step s every bank sends its block for bank (i+s) clockwise over s
	// hops; each ring segment is deliberately time-multiplexed by exactly s
	// flows, all compile-time scheduled.
	if b > 1 {
		ph := Phase{Name: "bank-exchange", Tier: TierBank, Steps: make([]Step, 0, b-1)}
		for s := 1; s < b; s++ {
			st := Step{Transfers: make([]Transfer, 0, r*c*b*s)}
			for rank := 0; rank < r; rank++ {
				for chip := 0; chip < c; chip++ {
					base := topo.ID(Coord{Rank: rank, Chip: chip, Bank: 0})
					for bank := 0; bank < b; bank++ {
						dst := collective.ShiftDest(b, bank, s)
						bytes := blk(int(base) + dst)
						for hop := 0; hop < s; hop++ {
							st.Transfers = append(st.Transfers, Transfer{
								Link: n.link(roleRing, rank, chip, (bank+hop)%b), Kind: KindRing, Bytes: bytes,
							})
						}
					}
				}
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}

	// Phase 2: inter-chip permutation through the crossbar (Fig. 8). At
	// step s chip i exchanges with chip (i+s): each chip ships the b*b
	// blocks its banks hold for the partner chip's banks.
	if c > 1 {
		ph := Phase{Name: "chip-permutation", Tier: TierChip, Steps: make([]Step, 0, c-1)}
		for s := 1; s < c; s++ {
			st := Step{Transfers: make([]Transfer, 0, 2*r*c)}
			for rank := 0; rank < r; rank++ {
				for chip := 0; chip < c; chip++ {
					partner := collective.ShiftDest(c, chip, s)
					var bytes int64
					pbase := topo.ID(Coord{Rank: rank, Chip: partner, Bank: 0})
					for db := 0; db < b; db++ {
						bytes += blk(int(pbase)+db) * int64(b)
					}
					snd, rcv := n.chipPair(rank, chip, partner, bytes)
					st.Transfers = append(st.Transfers, snd, rcv)
				}
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}

	// Phase 3: inter-rank unicast on the shared bus. Source and destination
	// are pre-determined, so the destination rank snoops its packets without
	// host involvement; pairs are serialized because the bus is single-master.
	if r > 1 {
		ph := Phase{Name: "rank-unicast", Tier: TierRank, Pipelined: true, Steps: make([]Step, 0, (r-1)*r)}
		perPair := func(srcRank, dstRank int) int64 {
			var bytes int64
			for chip := 0; chip < c; chip++ {
				dbase := topo.ID(Coord{Rank: dstRank, Chip: chip, Bank: 0})
				for db := 0; db < b; db++ {
					bytes += blk(int(dbase)+db) * int64(b*c)
				}
			}
			return bytes
		}
		for s := 1; s < r; s++ {
			// One bus transaction per ordered pair; group a full shift
			// permutation per logical step for symmetry with Fig. 8, but
			// each pair is its own bus step (single master).
			for src := 0; src < r; src++ {
				dst := collective.ShiftDest(r, src, s)
				bytes := perPair(src, dst)
				st := Step{Transfers: make([]Transfer, 0, 1+2*c)}
				st.Transfers = append(st.Transfers, Transfer{Link: n.link(roleBus, 0, 0, 0), Kind: KindBus, Bytes: bytes})
				for chip := 0; chip < c; chip++ {
					st.Transfers = append(st.Transfers,
						Transfer{Link: n.link(roleChipSend, src, chip, 0), Kind: KindCrossbarPort, Bytes: bytes / int64(c)},
						Transfer{Link: n.link(roleChipRecv, dst, chip, 0), Kind: KindCrossbarPort, Bytes: bytes / int64(c)},
					)
				}
				ph.Steps = append(ph.Steps, st)
			}
		}
		phases = append(phases, ph)
	}
	return phases
}

// broadcastPhases emits a root-to-all broadcast (Table V: Ring(chip) ->
// Broadcast(rank) -> Ring(bank)); M is the message size. The root is node 0
// by convention at the plan level; symmetry makes the timing root-invariant.
func broadcastPhases(n *Network, M int64) []Phase {
	topo := n.Topo
	b, c, r := topo.Banks, topo.Chips, topo.Ranks
	phases := make([]Phase, 0, 3)

	if c > 1 {
		// Pipelined forward chain across the root rank's chips.
		st := Step{Transfers: make([]Transfer, 0, 2*(c-1))}
		for chip := 0; chip < c-1; chip++ {
			snd, rcv := n.chipPair(0, chip, chip+1, M)
			st.Transfers = append(st.Transfers, snd, rcv)
		}
		phases = append(phases, Phase{Name: "chip-forward", Tier: TierChip, Steps: []Step{st}})
	}
	if r > 1 {
		st := Step{Transfers: make([]Transfer, 0, 1+(r-1)*c)}
		st.Transfers = append(st.Transfers, Transfer{Link: n.link(roleBus, 0, 0, 0), Kind: KindBus, Bytes: M})
		for rank := 1; rank < r; rank++ {
			for chip := 0; chip < c; chip++ {
				st.Transfers = append(st.Transfers, Transfer{
					Link: n.link(roleChipRecv, rank, chip, 0), Kind: KindCrossbarPort, Bytes: M,
				})
			}
		}
		phases = append(phases, Phase{Name: "rank-bcast", Tier: TierRank, Steps: []Step{st}})
	}
	if b > 1 {
		st := Step{Transfers: make([]Transfer, 0, r*c*(b-1))}
		for rank := 0; rank < r; rank++ {
			for chip := 0; chip < c; chip++ {
				for bank := 0; bank < b-1; bank++ {
					st.Transfers = append(st.Transfers, Transfer{
						Link: n.link(roleRing, rank, chip, bank), Kind: KindRing, Bytes: M,
					})
				}
			}
		}
		phases = append(phases, Phase{Name: "bank-forward", Tier: TierBank, Steps: []Step{st}})
	}
	return phases
}

// funnelPhases emits the N-to-1 Gather/Reduce extension (Section V-E): all
// traffic converges on node 0. For Reduce the root combines everything it
// receives.
func funnelPhases(n *Network, D int64, reduce bool) []Phase {
	topo := n.Topo
	b, c, r := topo.Banks, topo.Chips, topo.Ranks
	phases := make([]Phase, 0, 3)

	if b > 1 {
		st := Step{Transfers: make([]Transfer, 0, r*c*b*(b-1)/2)}
		for rank := 0; rank < r; rank++ {
			for chip := 0; chip < c; chip++ {
				for src := 1; src < b; src++ {
					// Clockwise from src to bank 0: hops src..b-1.
					for hop := src; hop < b; hop++ {
						st.Transfers = append(st.Transfers, Transfer{
							Link: n.link(roleRing, rank, chip, hop), Kind: KindRing, Bytes: D,
						})
					}
				}
			}
		}
		ph := Phase{Name: "bank-funnel", Tier: TierBank, Steps: []Step{st}}
		if reduce {
			ph.Steps[0].ReduceBytesPerNode = int64(b-1) * D
		}
		phases = append(phases, ph)
	}
	if c > 1 {
		ph := Phase{Name: "chip-funnel", Tier: TierChip, Steps: make([]Step, 0, c-1)}
		for src := 1; src < c; src++ {
			snd, rcv := n.chipPair(0, src, 0, int64(b)*D)
			st := Step{Transfers: []Transfer{snd, rcv}}
			if reduce {
				st.ReduceBytesPerNode = int64(b) * D
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}
	if r > 1 {
		ph := Phase{Name: "rank-funnel", Tier: TierRank, Steps: make([]Step, 0, r-1)}
		rankBytes := int64(b*c) * D
		for src := 1; src < r; src++ {
			st := Step{Transfers: []Transfer{
				{Link: n.link(roleBus, 0, 0, 0), Kind: KindBus, Bytes: rankBytes},
				{Link: n.link(roleChipRecv, 0, 0, 0), Kind: KindCrossbarPort, Bytes: rankBytes},
			}}
			if reduce {
				st.ReduceBytesPerNode = rankBytes
			}
			ph.Steps = append(ph.Steps, st)
		}
		phases = append(phases, ph)
	}
	return phases
}
