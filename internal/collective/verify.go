package collective

import (
	"fmt"
	"math/rand"
)

// Data holds per-node payload vectors of int64 words. The interpreter in
// this file executes collective algorithms on Data exactly as the timing
// models schedule them, providing an executable specification.
type Data [][]int64

// NewData returns nodes vectors of the given word count filled with a
// deterministic pseudo-random pattern derived from seed.
func NewData(nodes, words int, seed int64) Data {
	rng := rand.New(rand.NewSource(seed))
	d := make(Data, nodes)
	for i := range d {
		v := make([]int64, words)
		for j := range v {
			v[j] = int64(rng.Intn(1 << 20))
		}
		d[i] = v
	}
	return d
}

// Clone deep-copies the data.
func (d Data) Clone() Data {
	out := make(Data, len(d))
	for i, v := range d {
		out[i] = append([]int64(nil), v...)
	}
	return out
}

// Equal reports elementwise equality.
func (d Data) Equal(other Data) bool {
	if len(d) != len(other) {
		return false
	}
	for i := range d {
		if len(d[i]) != len(other[i]) {
			return false
		}
		for j := range d[i] {
			if d[i][j] != other[i][j] {
				return false
			}
		}
	}
	return true
}

// ReduceVector returns the elementwise reduction of all node vectors — the
// ground truth for AllReduce-family collectives.
func ReduceVector(d Data, op Op) []int64 {
	if len(d) == 0 {
		return nil
	}
	out := append([]int64(nil), d[0]...)
	for i := 1; i < len(d); i++ {
		for j, v := range d[i] {
			out[j] = op.Apply(out[j], v)
		}
	}
	return out
}

// RingReduceScatter executes the ring reduce-scatter algorithm in place.
// Afterwards node i holds the fully reduced chunk OwnedAfterRS(n, i) (its
// other chunks contain partial sums and are unspecified).
func RingReduceScatter(d Data, op Op) {
	n := len(d)
	if n <= 1 {
		return
	}
	words := len(d[0])
	for s := 0; s < RingSteps(n); s++ {
		// All sends happen logically in parallel: snapshot outgoing chunks
		// before applying any reductions.
		type msg struct {
			dst, chunk int
			payload    []int64
		}
		msgs := make([]msg, 0, n)
		for i := 0; i < n; i++ {
			c := RSSendChunk(n, i, s)
			lo, hi := ChunkBounds(words, n, c)
			msgs = append(msgs, msg{RingSuccessor(n, i), c, append([]int64(nil), d[i][lo:hi]...)})
		}
		for _, m := range msgs {
			lo, _ := ChunkBounds(words, n, m.chunk)
			for k, v := range m.payload {
				d[m.dst][lo+k] = op.Apply(d[m.dst][lo+k], v)
			}
		}
	}
}

// RingAllGather executes the ring all-gather in place, assuming node i's
// chunk OwnedAfterRS(n, i) is authoritative (the reduce-scatter postcondition).
func RingAllGather(d Data) {
	n := len(d)
	if n <= 1 {
		return
	}
	words := len(d[0])
	for s := 0; s < RingSteps(n); s++ {
		type msg struct {
			dst, chunk int
			payload    []int64
		}
		msgs := make([]msg, 0, n)
		for i := 0; i < n; i++ {
			c := AGSendChunk(n, i, s)
			lo, hi := ChunkBounds(words, n, c)
			msgs = append(msgs, msg{RingSuccessor(n, i), c, append([]int64(nil), d[i][lo:hi]...)})
		}
		for _, m := range msgs {
			lo, _ := ChunkBounds(words, n, m.chunk)
			copy(d[m.dst][lo:lo+len(m.payload)], m.payload)
		}
	}
}

// a2aBlock panics unless the payload divides evenly into n blocks. A
// personalized all-to-all is only well defined with uniform block sizes;
// the timing models pad payloads the same way.
func a2aBlock(words, n int) int {
	if n > 0 && words%n != 0 {
		panic(fmt.Sprintf("collective: all-to-all payload %d words not divisible by %d nodes", words, n))
	}
	return words / n
}

// PairwiseAllToAll executes the personalized exchange: block j of node i
// ends up as block i of node j (incoming blocks are slotted by source).
func PairwiseAllToAll(d Data) {
	n := len(d)
	if n <= 1 {
		return
	}
	blk := a2aBlock(len(d[0]), n)
	orig := d.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			copy(d[i][j*blk:(j+1)*blk], orig[j][i*blk:(i+1)*blk])
		}
	}
}

// PairwiseAllToAllStepped executes the exchange step by step using the
// shift schedule, mirroring the timing model's N-1 crossbar permutations.
// The result must equal PairwiseAllToAll; tests enforce this.
func PairwiseAllToAllStepped(d Data) {
	n := len(d)
	if n <= 1 {
		return
	}
	blk := a2aBlock(len(d[0]), n)
	orig := d.Clone()
	for s := 1; s < n; s++ {
		for i := 0; i < n; i++ {
			j := ShiftDest(n, i, s) // i sends its block destined for j
			// Node j stores the incoming block in slot i.
			copy(d[j][i*blk:(i+1)*blk], orig[i][j*blk:(j+1)*blk])
		}
	}
	// The self block ends in slot i of node i, where it already is.
}

// BroadcastData copies the root's vector to every node.
func BroadcastData(d Data, root int) {
	for i := range d {
		if i != root {
			copy(d[i], d[root])
		}
	}
}

// GatherData returns the concatenation of all node vectors in node order —
// the root's view after a Gather.
func GatherData(d Data) []int64 {
	var out []int64
	for _, v := range d {
		out = append(out, v...)
	}
	return out
}

// HierarchicalAllReduce executes the paper's Table V AllReduce pipeline on
// real data for a (ranks x chips x banks) hierarchy:
//
//	ring RS (inter-bank) -> ring RS (inter-chip) -> bus all-reduce
//	(inter-rank) -> ring AG (inter-chip) -> ring AG (inter-bank)
//
// Node numbering is ((rank*chips)+chip)*banks + bank. After the call every
// node holds the full reduction; tests compare against ReduceVector.
func HierarchicalAllReduce(d Data, ranks, chips, banks int, op Op) error {
	n := len(d)
	if n != ranks*chips*banks {
		return fmt.Errorf("collective: %d nodes != %d ranks x %d chips x %d banks",
			n, ranks, chips, banks)
	}
	if n == 0 {
		return nil
	}
	words := len(d[0])
	id := func(r, c, b int) int { return (r*chips+c)*banks + b }

	// Phase 1: ring reduce-scatter among the banks of every chip.
	for r := 0; r < ranks; r++ {
		for c := 0; c < chips; c++ {
			group := make(Data, banks)
			for b := 0; b < banks; b++ {
				group[b] = d[id(r, c, b)]
			}
			RingReduceScatter(group, op)
		}
	}
	// After phase 1, bank b authoritatively owns bank-chunk OwnedAfterRS(banks, b).

	// Phase 2: ring reduce-scatter across chips, between corresponding
	// banks, restricted to each bank's owned bank-chunk.
	for r := 0; r < ranks; r++ {
		for b := 0; b < banks; b++ {
			own := OwnedAfterRS(banks, b)
			lo, hi := ChunkBounds(words, banks, own)
			group := make(Data, chips)
			for c := 0; c < chips; c++ {
				group[c] = d[id(r, c, b)][lo:hi]
			}
			RingReduceScatter(group, op)
		}
	}
	// After phase 2, within bank-chunk own, chip c owns sub-chunk
	// OwnedAfterRS(chips, c).

	// Phase 3: bus all-reduce across ranks on each node's owned sub-chunk.
	// Every rank broadcasts its partial on the shared bus; the matching
	// nodes of all other ranks snoop and reduce.
	for c := 0; c < chips; c++ {
		for b := 0; b < banks; b++ {
			bankLo, bankHi := ChunkBounds(words, banks, OwnedAfterRS(banks, b))
			sub := bankHi - bankLo
			subLo, subHi := ChunkBounds(sub, chips, OwnedAfterRS(chips, c))
			lo, hi := bankLo+subLo, bankLo+subHi
			// Reduce across ranks, then write back to all ranks.
			acc := append([]int64(nil), d[id(0, c, b)][lo:hi]...)
			for r := 1; r < ranks; r++ {
				for k, v := range d[id(r, c, b)][lo:hi] {
					acc[k] = op.Apply(acc[k], v)
				}
			}
			for r := 0; r < ranks; r++ {
				copy(d[id(r, c, b)][lo:hi], acc)
			}
		}
	}

	// Phase 4: ring all-gather across chips within each bank-chunk.
	for r := 0; r < ranks; r++ {
		for b := 0; b < banks; b++ {
			own := OwnedAfterRS(banks, b)
			lo, hi := ChunkBounds(words, banks, own)
			group := make(Data, chips)
			for c := 0; c < chips; c++ {
				group[c] = d[id(r, c, b)][lo:hi]
			}
			RingAllGather(group)
		}
	}

	// Phase 5: ring all-gather among the banks of every chip.
	for r := 0; r < ranks; r++ {
		for c := 0; c < chips; c++ {
			group := make(Data, banks)
			for b := 0; b < banks; b++ {
				group[b] = d[id(r, c, b)]
			}
			RingAllGather(group)
		}
	}
	return nil
}

// HierarchicalReduceScatter runs phases 1-3 of HierarchicalAllReduce and
// then scatters ownership: node i ends up owning its hierarchical shard of
// the fully reduced vector. OwnedShard reports which words those are.
func HierarchicalReduceScatter(d Data, ranks, chips, banks int, op Op) error {
	n := len(d)
	if n != ranks*chips*banks {
		return fmt.Errorf("collective: %d nodes != hierarchy %dx%dx%d", n, ranks, chips, banks)
	}
	if n == 0 {
		return nil
	}
	// Phases 1-3 are identical to AllReduce; reuse it and rely on OwnedShard
	// for which region is authoritative at each node.
	return HierarchicalAllReduce(d, ranks, chips, banks, op)
}

// OwnedShard returns the word range of the reduced vector that the node at
// (chip, bank) owns after the hierarchical reduce-scatter phases (rank-level
// ownership is replicated across ranks because the bus phase all-reduces).
func OwnedShard(words, chips, banks, chip, bank int) (lo, hi int) {
	bankLo, bankHi := ChunkBounds(words, banks, OwnedAfterRS(banks, bank))
	sub := bankHi - bankLo
	subLo, subHi := ChunkBounds(sub, chips, OwnedAfterRS(chips, chip))
	return bankLo + subLo, bankLo + subHi
}
