// Package collective defines the collective-communication patterns PIMnet
// accelerates (paper Table V), the logical algorithms used to schedule them
// (ring reduce-scatter/all-gather, pairwise all-to-all exchange, bus
// broadcast), and a data-level reference interpreter.
//
// The interpreter executes the *same* chunk movements the timing models
// schedule, but on real buffers. It is the correctness oracle of the whole
// repository: the tests require that every algorithm (and every backend
// built on top of it) moves bytes equivalently to a direct computation of
// the collective's result.
package collective

import (
	"fmt"
	"strings"
)

// Pattern is a collective-communication pattern.
type Pattern int

// Patterns supported by PIMnet (Table V). Gather and Reduce are the N-to-1
// extensions mentioned in Section V-E.
const (
	ReduceScatter Pattern = iota
	AllGather
	AllReduce
	AllToAll
	Broadcast
	Gather
	Reduce
)

var patternNames = map[Pattern]string{
	ReduceScatter: "ReduceScatter",
	AllGather:     "AllGather",
	AllReduce:     "AllReduce",
	AllToAll:      "AllToAll",
	Broadcast:     "Broadcast",
	Gather:        "Gather",
	Reduce:        "Reduce",
}

// String returns the pattern name.
func (p Pattern) String() string {
	if s, ok := patternNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Patterns lists every supported pattern in declaration order.
func Patterns() []Pattern {
	return []Pattern{ReduceScatter, AllGather, AllReduce, AllToAll, Broadcast, Gather, Reduce}
}

// ParsePattern resolves a pattern name case-insensitively ("allreduce",
// "AllReduce", ...), the syntax every CLI flag and serving-request field
// uses.
func ParsePattern(s string) (Pattern, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	for p, name := range patternNames {
		if strings.ToLower(name) == want {
			return p, nil
		}
	}
	names := make([]string, 0, len(patternNames))
	for _, p := range Patterns() {
		names = append(names, strings.ToLower(patternNames[p]))
	}
	return 0, fmt.Errorf("collective: unknown pattern %q (want one of %s)", s, strings.Join(names, ", "))
}

// ParseOp resolves a reduction-operator name case-insensitively.
func ParseOp(s string) (Op, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sum":
		return Sum, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	case "or":
		return Or, nil
	}
	return 0, fmt.Errorf("collective: unknown op %q (want sum, min, max, or or)", s)
}

// Rooted reports whether the pattern has a distinguished root node.
func (p Pattern) Rooted() bool { return p == Broadcast || p == Gather || p == Reduce }

// Reduces reports whether the pattern performs elementwise reduction.
func (p Pattern) Reduces() bool {
	return p == ReduceScatter || p == AllReduce || p == Reduce
}

// Op is an elementwise reduction operator.
type Op int

// Reduction operators used by the evaluation workloads: Sum (GEMV, MLP,
// SpMV, EMB), Min (connected components), Or (BFS frontier bitmaps), Max.
const (
	Sum Op = iota
	Min
	Max
	Or
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Or:
		return "or"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Apply combines two words with the operator.
func (o Op) Apply(a, b int64) int64 {
	switch o {
	case Sum:
		return a + b
	case Min:
		if b < a {
			return b
		}
		return a
	case Max:
		if b > a {
			return b
		}
		return a
	case Or:
		return a | b
	default:
		panic(fmt.Sprintf("collective: unknown op %d", int(o)))
	}
}

// Request describes one collective invocation. BytesPerNode is the payload
// contributed by each participating node: for AllReduce it is the local
// vector length; for AllToAll it is the total each node sends (split across
// all destinations); for Broadcast it is the root's message size.
type Request struct {
	Pattern      Pattern
	Op           Op
	BytesPerNode int64
	ElemSize     int // bytes per element, for reduce-compute costing
	Nodes        int // number of participating DPUs
	Root         int // root node for rooted patterns
}

// TotalBytes returns the aggregate payload across all nodes.
func (r Request) TotalBytes() int64 { return r.BytesPerNode * int64(r.Nodes) }

// Validate reports malformed requests.
func (r Request) Validate() error {
	switch {
	case r.Nodes < 1:
		return fmt.Errorf("collective: %d nodes", r.Nodes)
	case r.BytesPerNode < 0:
		return fmt.Errorf("collective: negative payload %d", r.BytesPerNode)
	case r.ElemSize <= 0:
		return fmt.Errorf("collective: element size %d", r.ElemSize)
	case r.BytesPerNode%int64(r.ElemSize) != 0:
		return fmt.Errorf("collective: payload %dB not a multiple of element size %dB",
			r.BytesPerNode, r.ElemSize)
	case r.Pattern.Rooted() && (r.Root < 0 || r.Root >= r.Nodes):
		return fmt.Errorf("collective: root %d out of range [0,%d)", r.Root, r.Nodes)
	case !r.Pattern.Rooted() && r.Root != 0:
		return fmt.Errorf("collective: root set on unrooted pattern %v", r.Pattern)
	}
	if _, ok := patternNames[r.Pattern]; !ok {
		return fmt.Errorf("collective: unknown pattern %d", int(r.Pattern))
	}
	return nil
}

// String renders the request compactly, e.g. "AllReduce(32768B x 256)".
func (r Request) String() string {
	return fmt.Sprintf("%v(%dB x %d)", r.Pattern, r.BytesPerNode, r.Nodes)
}

// ChunkBounds returns the half-open word range [lo, hi) of chunk i when a
// vector of length words is balanced across n chunks. Chunk sizes differ by
// at most one word; the partition is the standard floor(i*W/n) split used by
// every ring schedule in this repository, so the timing models and the data
// interpreter always agree on chunk geometry.
func ChunkBounds(words, n, i int) (lo, hi int) {
	if n <= 0 || i < 0 || i >= n {
		panic(fmt.Sprintf("collective: chunk %d of %d", i, n))
	}
	return words * i / n, words * (i + 1) / n
}
