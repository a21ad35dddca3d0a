package collective

import "fmt"

// All-to-all scheduling. PIMnet implements All-to-All as pair-wise
// exchanges (Section V-D): at every step the active source-destination
// mapping is a self-inverse permutation, so two nodes swap blocks directly
// and no intermediate buffering is needed. Inside a chip the exchange runs
// over the ring; between chips the crossbar is configured with a different
// permutation each step (Fig. 8); between ranks blocks are unicast on the
// shared bus.

// ShiftDest returns node's destination at step s (1..n-1) of a rotation
// (shift) all-to-all schedule: node i sends the block destined for
// (i+s) mod n. This works for any n; each step is a permutation of the
// node set, so crossbar configurations are contention-free.
func ShiftDest(n, node, step int) int {
	if step < 1 || step >= n {
		panic(fmt.Sprintf("collective: shift step %d out of [1,%d)", step, n))
	}
	return mod(node+step, n)
}
