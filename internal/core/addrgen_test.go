package core

import (
	"fmt"
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// This file holds the paper's Algorithm 1, "AllReduce scheduling &
// addressing algorithm", as the executor's timing oracle. Because PIMnet
// never involves the host during communication, every PIM bank must know,
// before the collective starts, (a) the WRAM address its next send reads
// from and (b) the timing offset at which each phase of the schedule
// begins. Both are pure functions of the hierarchy shape, the bank's
// coordinates, the payload size, and the per-phase durations — all known
// at compile time — so the CPU produces them during kernel compilation and
// the DPUs simply follow the script. The simulator models no WRAM
// addresses; its lock-step executor realizes the offsets, and
// TestAlgorithm1OffsetsMatchExecutedPhases pins them to it.

// Domain selects the hierarchy level being scheduled.
type Domain int

// Hierarchy domains of Algorithm 1.
const (
	DomainBank Domain = iota
	DomainChip
	DomainRank
)

// String returns the domain name.
func (d Domain) String() string {
	switch d {
	case DomainBank:
		return "bank"
	case DomainChip:
		return "chip"
	case DomainRank:
		return "rank"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// PhaseKind selects the AllReduce half being scheduled.
type PhaseKind int

// AllReduce phases: reduce-scatter then all-gather.
const (
	PhaseRS PhaseKind = iota
	PhaseAG
)

// String returns the phase name.
func (p PhaseKind) String() string {
	if p == PhaseRS {
		return "RS"
	}
	return "AG"
}

// PhaseTimes carries the pre-computed duration of every phase of the
// hierarchical AllReduce — Algorithm 1's T_{RS_B} ... T_{AG_B} inputs.
type PhaseTimes struct {
	RSBank, RSChip, RSRank sim.Time
	AGRank, AGChip, AGBank sim.Time
}

// AddrParams are the static inputs of Algorithm 1 for one PIM bank.
type AddrParams struct {
	Banks, Chips, Ranks int   // N_B, N_C, N_R
	Bank, Chip, Rank    int   // I_B, I_C, I_R
	DataBytes           int64 // D
	BaseAddr            int64 // Addr_B: base WRAM address of the payload
	Times               PhaseTimes
}

// Schedule is Algorithm 1's output for one (domain, phase) pair: when the
// bank may start that phase relative to the collective's START signal, and
// the local address of the first chunk it sends.
type Schedule struct {
	Offset    sim.Time
	StartAddr int64
}

// ScheduleAllReduce evaluates Algorithm 1. The paper's pseudocode spells
// out the bank domain; the chip and rank domains follow the identical
// pattern one hierarchy level up, with the sub-chunk geometry produced by
// the preceding level's reduce-scatter.
func ScheduleAllReduce(domain Domain, phase PhaseKind, p AddrParams) (Schedule, error) {
	if err := p.validate(); err != nil {
		return Schedule{}, err
	}
	T := p.Times
	bankChunk := p.DataBytes / int64(p.Banks)
	chipChunk := bankChunk / int64(max(p.Chips, 1))
	switch domain {
	case DomainBank:
		if phase == PhaseRS {
			// offset = 0; Addr_s = Addr_B + D/N_B * I_B
			return Schedule{Offset: 0, StartAddr: p.BaseAddr + bankChunk*int64(p.Bank)}, nil
		}
		// offset = T_RS_B + T_RS_C + T_RS_R + T_AG_R + T_AG_C
		// Addr_s = Addr_B + D/N_B * ((I_B + N_B - 1) % N_B)
		off := T.RSBank + T.RSChip + T.RSRank + T.AGRank + T.AGChip
		chunk := (p.Bank + p.Banks - 1) % p.Banks
		return Schedule{Offset: off, StartAddr: p.BaseAddr + bankChunk*int64(chunk)}, nil
	case DomainChip:
		// The chip domain operates within the bank-chunk this bank owns
		// after the bank-level reduce-scatter.
		ownedBase := p.BaseAddr + bankChunk*int64(collective.OwnedAfterRS(p.Banks, p.Bank))
		if phase == PhaseRS {
			return Schedule{
				Offset:    T.RSBank,
				StartAddr: ownedBase + chipChunk*int64(p.Chip),
			}, nil
		}
		off := T.RSBank + T.RSChip + T.RSRank + T.AGRank
		chunk := (p.Chip + p.Chips - 1) % p.Chips
		return Schedule{Offset: off, StartAddr: ownedBase + chipChunk*int64(chunk)}, nil
	case DomainRank:
		// The rank domain broadcasts the sub-chunk owned after the chip
		// level; the bus schedule serializes ranks in index order.
		ownedBase := p.BaseAddr + bankChunk*int64(collective.OwnedAfterRS(p.Banks, p.Bank)) +
			chipChunk*int64(collective.OwnedAfterRS(p.Chips, p.Chip))
		if phase == PhaseRS {
			return Schedule{Offset: T.RSBank + T.RSChip, StartAddr: ownedBase}, nil
		}
		return Schedule{Offset: T.RSBank + T.RSChip + T.RSRank, StartAddr: ownedBase}, nil
	default:
		return Schedule{}, fmt.Errorf("core: unknown domain %v", domain)
	}
}

func (p AddrParams) validate() error {
	switch {
	case p.Banks < 1 || p.Chips < 1 || p.Ranks < 1:
		return fmt.Errorf("core: addrgen hierarchy %dx%dx%d invalid", p.Ranks, p.Chips, p.Banks)
	case p.Bank < 0 || p.Bank >= p.Banks:
		return fmt.Errorf("core: addrgen I_B=%d out of [0,%d)", p.Bank, p.Banks)
	case p.Chip < 0 || p.Chip >= p.Chips:
		return fmt.Errorf("core: addrgen I_C=%d out of [0,%d)", p.Chip, p.Chips)
	case p.Rank < 0 || p.Rank >= p.Ranks:
		return fmt.Errorf("core: addrgen I_R=%d out of [0,%d)", p.Rank, p.Ranks)
	case p.DataBytes < 0:
		return fmt.Errorf("core: addrgen negative payload")
	}
	return nil
}

// PhaseTimesFromPlan extracts Algorithm 1's phase-duration inputs from a
// compiled AllReduce plan by summing step costs per phase name. Plans
// compiled for degenerate shapes (single chip or rank) report zero for the
// missing phases.
func PhaseTimesFromPlan(n *Network, p *Plan) PhaseTimes {
	var t PhaseTimes
	for _, ph := range p.Phases {
		d := phaseDuration(n, ph, p.Req.ElemSize)
		switch ph.Name {
		case "bank-RS":
			t.RSBank = d
		case "chip-RS":
			t.RSChip = d
		case "rank-bcast-reduce":
			t.RSRank = d
			t.AGRank = 0 // the bus broadcast doubles as the gather hop
		case "chip-AG":
			t.AGChip = d
		case "bank-AG":
			t.AGBank = d
		}
	}
	return t
}

// phaseDuration evaluates one phase in isolation on fresh link state.
func phaseDuration(n *Network, ph Phase, elemSize int) sim.Time {
	n.Reset()
	var now sim.Time
	for _, st := range ph.Steps {
		end := now
		for _, tr := range st.Transfers {
			_, done := n.links[tr.Link].Reserve(now, tr.Bytes)
			if done > end {
				end = done
			}
		}
		if st.ReduceBytesPerNode > 0 {
			if r := now + n.reduceTime(st.ReduceBytesPerNode, elemSize); r > end {
				end = r
			}
		}
		now = end
	}
	n.Reset()
	return now
}

func addrParams() AddrParams {
	return AddrParams{
		Banks: 8, Chips: 8, Ranks: 4,
		Bank: 3, Chip: 2, Rank: 1,
		DataBytes: 32 << 10,
		BaseAddr:  0x1000,
		Times: PhaseTimes{
			RSBank: 10 * sim.Microsecond,
			RSChip: 20 * sim.Microsecond,
			RSRank: 5 * sim.Microsecond,
			AGRank: 5 * sim.Microsecond,
			AGChip: 20 * sim.Microsecond,
			AGBank: 10 * sim.Microsecond,
		},
	}
}

func TestAlgorithm1BankDomain(t *testing.T) {
	p := addrParams()
	rs, err := ScheduleAllReduce(DomainBank, PhaseRS, p)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: offset = 0, Addr_s = Addr_B + D/N_B * I_B.
	if rs.Offset != 0 {
		t.Fatalf("bank RS offset = %v, want 0", rs.Offset)
	}
	wantAddr := p.BaseAddr + (p.DataBytes/8)*3
	if rs.StartAddr != wantAddr {
		t.Fatalf("bank RS addr = %#x, want %#x", rs.StartAddr, wantAddr)
	}
	ag, err := ScheduleAllReduce(DomainBank, PhaseAG, p)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: offset = T_RS_B + T_RS_C + T_RS_R + T_AG_R + T_AG_C.
	wantOff := 10*sim.Microsecond + 20*sim.Microsecond + 5*sim.Microsecond +
		5*sim.Microsecond + 20*sim.Microsecond
	if ag.Offset != wantOff {
		t.Fatalf("bank AG offset = %v, want %v", ag.Offset, wantOff)
	}
	// Addr_s = Addr_B + D/N_B * ((I_B + N_B - 1) % N_B) = chunk 2.
	wantAddr = p.BaseAddr + (p.DataBytes/8)*2
	if ag.StartAddr != wantAddr {
		t.Fatalf("bank AG addr = %#x, want %#x", ag.StartAddr, wantAddr)
	}
}

func TestAlgorithm1OffsetsOrdered(t *testing.T) {
	// Phase start offsets must be nondecreasing along the pipeline:
	// bank RS <= chip RS <= rank RS <= rank AG <= chip AG <= bank AG.
	p := addrParams()
	var offs []sim.Time
	for _, dp := range []struct {
		d  Domain
		ph PhaseKind
	}{
		{DomainBank, PhaseRS}, {DomainChip, PhaseRS}, {DomainRank, PhaseRS},
		{DomainRank, PhaseAG}, {DomainChip, PhaseAG}, {DomainBank, PhaseAG},
	} {
		s, err := ScheduleAllReduce(dp.d, dp.ph, p)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, s.Offset)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatalf("offsets not ordered: %v", offs)
		}
	}
}

func TestAlgorithm1AddressesInBounds(t *testing.T) {
	p := addrParams()
	for bank := 0; bank < p.Banks; bank++ {
		for chip := 0; chip < p.Chips; chip++ {
			q := p
			q.Bank, q.Chip = bank, chip
			for _, d := range []Domain{DomainBank, DomainChip, DomainRank} {
				for _, ph := range []PhaseKind{PhaseRS, PhaseAG} {
					s, err := ScheduleAllReduce(d, ph, q)
					if err != nil {
						t.Fatal(err)
					}
					if s.StartAddr < p.BaseAddr || s.StartAddr >= p.BaseAddr+p.DataBytes {
						t.Fatalf("domain %v phase %v bank %d chip %d: addr %#x out of payload",
							d, ph, bank, chip, s.StartAddr)
					}
				}
			}
		}
	}
}

func TestAlgorithm1BankAddressesDistinct(t *testing.T) {
	// Within one chip, the RS start addresses of all banks must be distinct
	// (each bank starts from its own chunk).
	p := addrParams()
	seen := map[int64]bool{}
	for bank := 0; bank < p.Banks; bank++ {
		q := p
		q.Bank = bank
		s, err := ScheduleAllReduce(DomainBank, PhaseRS, q)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.StartAddr] {
			t.Fatalf("duplicate RS start address %#x", s.StartAddr)
		}
		seen[s.StartAddr] = true
	}
}

func TestAlgorithm1Validation(t *testing.T) {
	bad := []AddrParams{
		{Banks: 0, Chips: 1, Ranks: 1},
		{Banks: 8, Chips: 8, Ranks: 4, Bank: 8},
		{Banks: 8, Chips: 8, Ranks: 4, Chip: -1},
		{Banks: 8, Chips: 8, Ranks: 4, Rank: 4},
		{Banks: 8, Chips: 8, Ranks: 4, DataBytes: -2},
	}
	for i, p := range bad {
		if _, err := ScheduleAllReduce(DomainBank, PhaseRS, p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if _, err := ScheduleAllReduce(Domain(9), PhaseRS, addrParams()); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestPhaseTimesFromPlan(t *testing.T) {
	sys, _ := config.Default().WithDPUs(256)
	net, err := NewNetwork(sys)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFor(net, collective.Request{Pattern: collective.AllReduce,
		Op: collective.Sum, BytesPerNode: 32 << 10, ElemSize: 4, Nodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	pt := PhaseTimesFromPlan(net, plan)
	if pt.RSBank <= 0 || pt.RSChip <= 0 || pt.RSRank <= 0 || pt.AGChip <= 0 || pt.AGBank <= 0 {
		t.Fatalf("phase times incomplete: %+v", pt)
	}
	// RS and AG mirror volumes on bank/chip tiers; AG has no reduce, so it
	// can only be as fast or faster.
	if pt.AGBank > pt.RSBank {
		t.Fatalf("bank AG (%v) slower than bank RS (%v)", pt.AGBank, pt.RSBank)
	}
	if pt.AGChip > pt.RSChip {
		t.Fatalf("chip AG (%v) slower than chip RS (%v)", pt.AGChip, pt.RSChip)
	}
	// The extracted phase times must feed Algorithm 1 consistently: the AG
	// offset equals the sum of everything before it.
	s, err := ScheduleAllReduce(DomainBank, PhaseAG, AddrParams{
		Banks: 8, Chips: 8, Ranks: 4, DataBytes: 32 << 10, Times: pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := pt.RSBank + pt.RSChip + pt.RSRank + pt.AGRank + pt.AGChip
	if s.Offset != want {
		t.Fatalf("AG offset %v != phase sum %v", s.Offset, want)
	}
}

// TestAlgorithm1OffsetsMatchExecutedPhases: the executor's phase starts,
// taken relative to the first phase's start, are Algorithm 1's offsets for
// the plan's own phase durations. Shapes below a rank or a chip compile
// without the missing phases, and 1 MiB stages through MRAM before the
// first phase; both leave the offsets exact.
func TestAlgorithm1OffsetsMatchExecutedPhases(t *testing.T) {
	type slot struct {
		d  Domain
		ph PhaseKind
	}
	slots := map[string]slot{
		"bank-RS":           {DomainBank, PhaseRS},
		"chip-RS":           {DomainChip, PhaseRS},
		"rank-bcast-reduce": {DomainRank, PhaseRS},
		"chip-AG":           {DomainChip, PhaseAG},
		"bank-AG":           {DomainBank, PhaseAG},
	}
	for _, dpus := range []int{8, 64, 256} {
		for _, bytes := range []int64{4 << 10, 32 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("%d/%d", dpus, bytes), func(t *testing.T) {
				n := testNet(t, dpus)
				plan, err := PlanFor(n, testReq(collective.AllReduce, dpus, bytes))
				if err != nil {
					t.Fatal(err)
				}
				topo := n.Topo
				params := AddrParams{Banks: topo.Banks, Chips: topo.Chips, Ranks: topo.Ranks,
					DataBytes: bytes, Times: PhaseTimesFromPlan(n, plan)}
				rec := trace.NewRecorder(0)
				n.SetTracer(rec, trace.LevelPhase)
				if _, err := n.Execute(plan); err != nil {
					t.Fatal(err)
				}
				var first int64
				starts := 0
				for _, ev := range rec.Events() {
					if ev.Kind != trace.KindPhaseStart {
						continue
					}
					if starts == 0 {
						first = ev.Start
					}
					starts++
					s, ok := slots[ev.Name]
					if !ok {
						t.Fatalf("phase %q has no Algorithm 1 slot", ev.Name)
					}
					want, err := ScheduleAllReduce(s.d, s.ph, params)
					if err != nil {
						t.Fatal(err)
					}
					if got := sim.Time(ev.Start - first); got != want.Offset {
						t.Errorf("%s starts at +%v, Algorithm 1 says +%v", ev.Name, got, want.Offset)
					}
				}
				if starts != len(plan.Phases) {
					t.Fatalf("%d phase starts traced for %d phases", starts, len(plan.Phases))
				}
			})
		}
	}
}
