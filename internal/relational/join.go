// Package relational provides the database substrate of the Join workload:
// tuples, deterministic relation generation, radix-style hash partitioning
// (the global partitioning step of the processing-in-DIMM join of [61],
// which induces an All-to-All across all PIM banks), and a build/probe hash
// join with a nested-loop reference used as the correctness oracle.
package relational

import (
	"fmt"
	"math/rand"
)

// Tuple is a (key, payload) pair.
type Tuple struct {
	Key int32
	Val int32
}

// Generate produces n tuples with keys drawn from [0, keyRange).
func Generate(n int, keyRange int32, seed int64) ([]Tuple, error) {
	if n < 0 {
		return nil, fmt.Errorf("relational: %d tuples", n)
	}
	if keyRange < 1 {
		return nil, fmt.Errorf("relational: key range %d", keyRange)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{Key: rng.Int31n(keyRange), Val: int32(i)}
	}
	return out, nil
}

// hash is a Fibonacci multiplicative hash over the key space.
func hash(k int32) uint32 { return uint32(k) * 2654435761 }

// Partition splits tuples into p hash partitions — the step that, when
// tuples start scattered across PIM banks, requires every bank to send
// each tuple to its hash-owner bank: the Join workload's All-to-All.
func Partition(tuples []Tuple, p int) ([][]Tuple, error) {
	if p < 1 {
		return nil, fmt.Errorf("relational: %d partitions", p)
	}
	parts := make([][]Tuple, p)
	for _, t := range tuples {
		i := int(hash(t.Key) % uint32(p))
		parts[i] = append(parts[i], t)
	}
	return parts, nil
}

// JoinPair is one match of the equi-join.
type JoinPair struct {
	Key        int32
	LVal, RVal int32
}

// HashJoin computes the equi-join of two relations with build (smaller
// side) and probe phases.
func HashJoin(left, right []Tuple) []JoinPair {
	build, probe := left, right
	swapped := false
	if len(right) < len(left) {
		build, probe = right, left
		swapped = true
	}
	table := make(map[int32][]int32, len(build))
	for _, t := range build {
		table[t.Key] = append(table[t.Key], t.Val)
	}
	var out []JoinPair
	for _, t := range probe {
		for _, v := range table[t.Key] {
			if swapped {
				out = append(out, JoinPair{Key: t.Key, LVal: t.Val, RVal: v})
			} else {
				out = append(out, JoinPair{Key: t.Key, LVal: v, RVal: t.Val})
			}
		}
	}
	return out
}

// PartitionedHashJoin partitions both sides identically, joins partition by
// partition (as each DPU does after the All-to-All), and concatenates.
// Tests require its result set to equal HashJoin's.
func PartitionedHashJoin(left, right []Tuple, p int) ([]JoinPair, error) {
	lp, err := Partition(left, p)
	if err != nil {
		return nil, err
	}
	rp, err := Partition(right, p)
	if err != nil {
		return nil, err
	}
	var out []JoinPair
	for i := 0; i < p; i++ {
		out = append(out, HashJoin(lp[i], rp[i])...)
	}
	return out, nil
}

// ShuffleStats describes the redistribution traffic of a partitioned join.
type ShuffleStats struct {
	TuplesMoved   int64 // tuples leaving their origin bank, expectation (p-1)/p of all
	BytesPerTuple int64
}

// Shuffle computes redistribution statistics for tuples initially sharded
// round-robin across p banks.
func Shuffle(tuples []Tuple, p int) (ShuffleStats, error) {
	if p < 1 {
		return ShuffleStats{}, fmt.Errorf("relational: %d partitions", p)
	}
	var moved int64
	for i, t := range tuples {
		origin := i % p
		dest := int(hash(t.Key) % uint32(p))
		if origin != dest {
			moved++
		}
	}
	return ShuffleStats{TuplesMoved: moved, BytesPerTuple: 8}, nil
}
