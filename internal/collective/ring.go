package collective

// Ring-algorithm chunk arithmetic. A ring reduce-scatter / all-gather on n
// nodes runs n-1 steps; at every step each node sends exactly one chunk to
// its clockwise successor. Because every node uses a distinct link each
// step, the schedule is contention-free by construction — the property the
// PIMnet hardware relies on to omit buffers and arbitration.
//
// Conventions (used consistently by the timing models in internal/core and
// by the data interpreter in this package):
//
//	reduce-scatter step s:  node i sends chunk (i-s) mod n, receives chunk
//	                        (i-s-1) mod n and reduces it into its copy.
//	after RS:               node i fully owns chunk (i+1) mod n.
//	all-gather step s:      node i sends chunk (i+1-s) mod n, receives
//	                        chunk (i-s) mod n.
//
// The start addresses produced by OwnedAfterRS/RSSendChunk correspond to the
// paper's Algorithm 1 address generation (base + D/N * chunkIndex).

// mod returns a modulo n in [0, n).
func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// RingSteps returns the number of steps of a ring RS or AG on n nodes.
func RingSteps(n int) int {
	if n <= 1 {
		return 0
	}
	return n - 1
}

// RSSendChunk returns the chunk index node sends at the given
// reduce-scatter step.
func RSSendChunk(n, node, step int) int { return mod(node-step, n) }

// RSRecvChunk returns the chunk index node receives (and reduces) at the
// given reduce-scatter step.
func RSRecvChunk(n, node, step int) int { return mod(node-step-1, n) }

// OwnedAfterRS returns the chunk a node fully owns after reduce-scatter.
func OwnedAfterRS(n, node int) int { return mod(node+1, n) }

// AGSendChunk returns the chunk index node sends at the given all-gather
// step.
func AGSendChunk(n, node, step int) int { return mod(node+1-step, n) }

// RingSuccessor returns the clockwise neighbour.
func RingSuccessor(n, node int) int { return mod(node+1, n) }

// RSTrafficPerNode returns the bytes each node transmits during a ring
// reduce-scatter of a payload of the given size: (n-1)/n * payload.
func RSTrafficPerNode(payload int64, n int) int64 {
	if n <= 1 {
		return 0
	}
	var total int64
	// Sum of actual chunk sizes sent equals payload minus the chunk owned
	// at the end; using exact chunk geometry keeps byte accounting in
	// agreement with the data interpreter even when n does not divide the
	// payload.
	words := int(payload) // treat bytes as words of 1 for accounting
	for s := 0; s < RingSteps(n); s++ {
		lo, hi := ChunkBounds(words, n, RSSendChunk(n, 0, s))
		total += int64(hi - lo)
	}
	return total
}
