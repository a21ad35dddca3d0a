package core

import (
	"strings"
	"testing"
	"testing/quick"

	"pimnet/internal/collective"
	"pimnet/internal/config"
)

func TestDescribeListsPhases(t *testing.T) {
	p := channel(t, 256)
	plan, err := PlanFor(p.network(), req(collective.AllReduce, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Describe()
	for _, want := range []string{"bank-RS", "chip-RS", "rank-bcast-reduce", "chip-AG", "bank-AG",
		"inter-bank", "inter-chip", "inter-rank", "256 DPUs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Describe missing %q:\n%s", want, s)
		}
	}
	bigPlan, err := PlanFor(p.network(), req(collective.AllReduce, 256<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bigPlan.Describe(), "staging") {
		t.Fatal("Describe missing staging line for oversized payload")
	}
	a2a, err := PlanFor(p.network(), req(collective.AllToAll, 32<<10, 256))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a2a.Describe(), "pipelined") {
		t.Fatal("Describe missing pipelined marker for rank-unicast phase")
	}
}

// The compiler's scheduled volumes must match the closed-form Table V
// volumes for every pattern and hierarchy shape.
func TestPlanVolumesMatchClosedForm(t *testing.T) {
	shapes := []int{1, 8, 16, 64, 128, 256}
	patterns := []collective.Pattern{collective.AllReduce, collective.ReduceScatter, collective.AllToAll}
	for _, n := range shapes {
		for _, pat := range patterns {
			sys, err := config.Default().WithDPUs(n)
			if err != nil {
				t.Fatal(err)
			}
			net, err := NewNetwork(sys)
			if err != nil {
				t.Fatal(err)
			}
			r := req(pat, 32<<10, n)
			plan, err := PlanFor(net, r)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.Volumes()
			want, ok := ExpectedVolumes(net.Topo, r)
			if !ok {
				t.Fatalf("no closed form for %v", pat)
			}
			if got.Rank != want.Rank {
				t.Fatalf("%v n=%d: rank bytes %d, want %d", pat, n, got.Rank, want.Rank)
			}
			if pat != collective.AllToAll {
				if got.Bank != want.Bank {
					t.Fatalf("%v n=%d: bank bytes %d, want %d", pat, n, got.Bank, want.Bank)
				}
				// Chip volume: the compiler also uses the chip channels
				// during the bus phase (shard feeding); subtract that known
				// extra before comparing the ring component.
				extra := int64(0)
				if net.Topo.Ranks > 1 {
					// Each bus step sends every chip's shard set once.
					perRank := r.BytesPerNode
					extra = int64(net.Topo.Ranks) * perRank
					if pat == collective.ReduceScatter {
						// RS has the same single bus phase.
						extra = int64(net.Topo.Ranks) * perRank
					}
				}
				if got.Chip != want.Chip+extra {
					t.Fatalf("%v n=%d: chip bytes %d, want %d (+%d bus feed)",
						pat, n, got.Chip, want.Chip, extra)
				}
			}
		}
	}
}

// Property: for random payload sizes, scheduled volumes conserve bytes —
// the rank tier of AllReduce carries exactly ranks*D and the bank tier
// exactly 2*P*ringTraffic(D) regardless of divisibility.
func TestPlanVolumeProperty(t *testing.T) {
	sys, err := config.Default().WithDPUs(256)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(sys)
	if err != nil {
		t.Fatal(err)
	}
	f := func(kb uint8) bool {
		d := (int64(kb)%64 + 1) * 1024
		r := req(collective.AllReduce, d, 256)
		plan, err := PlanFor(net, r)
		if err != nil {
			return false
		}
		got := plan.Volumes()
		want, _ := ExpectedVolumes(net.Topo, r)
		return got.Rank == want.Rank && got.Bank == want.Bank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: execution time is monotone nondecreasing in payload size.
func TestExecMonotoneInPayload(t *testing.T) {
	p := channel(t, 256)
	var prev int64 = -1
	for _, kb := range []int64{1, 2, 4, 8, 16, 32, 64, 128} {
		res, err := p.Collective(req(collective.AllReduce, kb<<10, 256))
		if err != nil {
			t.Fatal(err)
		}
		if int64(res.Time) < prev {
			t.Fatalf("time decreased at %d KB", kb)
		}
		prev = int64(res.Time)
	}
}
