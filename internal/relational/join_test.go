package relational

import (
	"fmt"
	"sort"
	"testing"
)

func sortPairs(p []JoinPair) {
	sort.Slice(p, func(i, j int) bool {
		if p[i].Key != p[j].Key {
			return p[i].Key < p[j].Key
		}
		if p[i].LVal != p[j].LVal {
			return p[i].LVal < p[j].LVal
		}
		return p[i].RVal < p[j].RVal
	})
}

func pairsEqual(a, b []JoinPair) bool {
	if len(a) != len(b) {
		return false
	}
	sortPairs(a)
	sortPairs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGenerate(t *testing.T) {
	tuples, err := Generate(1000, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1000 {
		t.Fatalf("len = %d", len(tuples))
	}
	for _, tu := range tuples {
		if tu.Key < 0 || tu.Key >= 128 {
			t.Fatal("key out of range")
		}
	}
	again, _ := Generate(1000, 128, 4)
	for i := range tuples {
		if tuples[i] != again[i] {
			t.Fatal("same seed, different relation")
		}
	}
	if _, err := Generate(-1, 10, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := Generate(10, 0, 1); err == nil {
		t.Fatal("zero key range accepted")
	}
}

func TestPartitionCoversAll(t *testing.T) {
	tuples, _ := Generate(5000, 1000, 5)
	parts, err := Partition(tuples, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 64 {
		t.Fatalf("parts = %d", len(parts))
	}
	var total int
	for _, p := range parts {
		total += len(p)
	}
	if total != 5000 {
		t.Fatalf("partition total = %d", total)
	}
	// Same key always lands in the same partition.
	owner := map[int32]int{}
	for i, p := range parts {
		for _, tu := range p {
			if prev, ok := owner[tu.Key]; ok && prev != i {
				t.Fatalf("key %d split across partitions %d and %d", tu.Key, prev, i)
			}
			owner[tu.Key] = i
		}
	}
	if maxPartition(parts) <= 0 {
		t.Fatal("max partition empty")
	}
	if _, err := Partition(tuples, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

// maxPartition returns the heaviest partition's tuple count — the busiest
// DPU's local join work after redistribution.
func maxPartition(parts [][]Tuple) int64 {
	var m int64
	for _, p := range parts {
		if int64(len(p)) > m {
			m = int64(len(p))
		}
	}
	return m
}

// nestedLoopJoin is the O(n*m) reference oracle.
func nestedLoopJoin(left, right []Tuple) []JoinPair {
	var out []JoinPair
	for _, l := range left {
		for _, r := range right {
			if l.Key == r.Key {
				out = append(out, JoinPair{Key: l.Key, LVal: l.Val, RVal: r.Val})
			}
		}
	}
	return out
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	left, _ := Generate(300, 64, 6)
	right, _ := Generate(400, 64, 7)
	want := nestedLoopJoin(left, right)
	got := HashJoin(left, right)
	if !pairsEqual(want, got) {
		t.Fatalf("hash join differs from nested loop: %d vs %d pairs", len(got), len(want))
	}
	// Swapped build side (right smaller).
	got2 := HashJoin(right, left)
	want2 := nestedLoopJoin(right, left)
	if !pairsEqual(want2, got2) {
		t.Fatal("swapped-side hash join wrong")
	}
}

func TestPartitionedJoinMatchesHashJoin(t *testing.T) {
	left, _ := Generate(500, 100, 8)
	right, _ := Generate(600, 100, 9)
	want := HashJoin(left, right)
	for _, p := range []int{1, 7, 64} {
		got, err := PartitionedHashJoin(left, right, p)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(want, got) {
			t.Fatalf("p=%d: partitioned join differs (%d vs %d pairs)", p, len(got), len(want))
		}
	}
	if _, err := PartitionedHashJoin(left, right, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
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

func TestShuffleStats(t *testing.T) {
	tuples, _ := Generate(10000, 10000, 10)
	st, err := Shuffle(tuples, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Expectation: (p-1)/p ~ 98% of tuples move.
	frac := float64(st.TuplesMoved) / float64(len(tuples))
	if frac < 0.9 || frac > 1.0 {
		t.Fatalf("moved fraction = %.3f, want ~0.98", frac)
	}
	if st.BytesPerTuple != 8 {
		t.Fatalf("bytes/tuple = %d", st.BytesPerTuple)
	}
	if _, err := Shuffle(tuples, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}
