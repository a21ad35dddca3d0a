package trace

import (
	"strings"
	"testing"
)

func TestKindAndTierStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Error("out-of-range kind should fall back")
	}
	for _, tc := range []struct {
		tier Tier
		want string
	}{{TierBank, "inter-bank"}, {TierChip, "inter-chip"}, {TierRank, "inter-rank"}, {TierNone, "none"}} {
		if got := tc.tier.String(); got != tc.want {
			t.Errorf("tier %d = %q, want %q", tc.tier, got, tc.want)
		}
	}
}

func TestKindSpan(t *testing.T) {
	spans := map[Kind]bool{
		KindPhaseEnd: true, KindLinkBusy: true, KindSyncTree: true,
		KindMemStage: true, KindHostStage: true, KindRetry: true, KindReroute: true,
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.Span() != spans[k] {
			t.Errorf("%v.Span() = %v, want %v", k, k.Span(), spans[k])
		}
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"phase": LevelPhase, "link": LevelLink} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel should reject unknown levels")
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindPhaseEnd, Start: int64(i), End: int64(i + 1)})
	}
	if r.Total() != 10 || r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("total %d len %d dropped %d", r.Total(), r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.Start != want {
			t.Fatalf("event %d start = %d, want %d (oldest-first order)", i, ev.Start, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("reset should clear the ring")
	}
}

func TestRecorderSteadyStateZeroAllocs(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 8; i++ {
		r.Emit(Event{Start: int64(i)})
	}
	var tr Tracer = r
	avg := testing.AllocsPerRun(100, func() {
		tr.Emit(Event{Kind: KindLinkBusy, Link: "ring[r0,c0,b0]", Start: 1, End: 2, Bytes: 64})
	})
	if avg != 0 {
		t.Fatalf("full ring Emit allocates %.1f times, want 0", avg)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi should be nil")
	}
	a, b := NewRecorder(4), NewRecorder(4)
	if Multi(a, nil) != Tracer(a) {
		t.Fatal("single survivor should be unwrapped")
	}
	m := Multi(a, b)
	m.Emit(Event{Kind: KindSyncTree, Start: 1, End: 2})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out failed: %d, %d", a.Len(), b.Len())
	}
}

func TestFindUtil(t *testing.T) {
	u := NewUtil()
	if FindUtil(nil) != nil || FindUtil(NewRecorder(4)) != nil {
		t.Fatal("no util to find")
	}
	if FindUtil(u) != u {
		t.Fatal("direct util not found")
	}
	if FindUtil(Multi(NewRecorder(4), u, NewChrome())) != u {
		t.Fatal("util inside Multi not found")
	}
}

func TestUtilSummary(t *testing.T) {
	u := NewUtil()
	// Two bank links: one busy 80 of 100 ps, one busy 20.
	u.Emit(Event{Kind: KindLinkBusy, Tier: TierBank, Link: "ring[a]", Start: 0, End: 80, Bytes: 800})
	u.Emit(Event{Kind: KindLinkBusy, Tier: TierBank, Link: "ring[b]", Start: 0, End: 20, Bytes: 200})
	// One chip link across two transfers.
	u.Emit(Event{Kind: KindLinkBusy, Tier: TierChip, Link: "dq[a]", Start: 0, End: 30, Bytes: 300})
	u.Emit(Event{Kind: KindLinkBusy, Tier: TierChip, Link: "dq[a]", Start: 40, End: 70, Bytes: 300})
	// Phase spans establishing the horizon and tier wall-clock.
	u.Emit(Event{Kind: KindPhaseEnd, Tier: TierBank, Name: "bank-RS", Start: 0, End: 80})
	u.Emit(Event{Kind: KindPhaseEnd, Tier: TierChip, Name: "chip-RS", Start: 80, End: 100})

	s := u.Summary(0)
	if s.HorizonPs != 100 {
		t.Fatalf("horizon = %d, want 100", s.HorizonPs)
	}
	if s.Events != 6 {
		t.Fatalf("events = %d", s.Events)
	}
	bank, chip := s.Tiers[TierBank], s.Tiers[TierChip]
	if bank.PhaseBusyPs != 80 || chip.PhaseBusyPs != 20 {
		t.Fatalf("phase busy = %d/%d, want 80/20", bank.PhaseBusyPs, chip.PhaseBusyPs)
	}
	if bank.LinkBusyPs != 100 || bank.Links != 2 {
		t.Fatalf("bank link busy = %d over %d links", bank.LinkBusyPs, bank.Links)
	}
	if chip.LinkBusyPs != 60 || chip.Links != 1 {
		t.Fatalf("chip link busy = %d over %d links", chip.LinkBusyPs, chip.Links)
	}
	if bank.MaxUtil != 0.8 || bank.MeanUtil != 0.5 {
		t.Fatalf("bank util max %v mean %v, want 0.8/0.5", bank.MaxUtil, bank.MeanUtil)
	}
	// 80% utilization lands in decile 8, 20% in decile 2.
	if bank.Hist[8] != 1 || bank.Hist[2] != 1 {
		t.Fatalf("bank histogram %v", bank.Hist)
	}
	if len(s.Top) != 3 || s.Top[0].Name != "ring[a]" || s.Top[0].BusyPs != 80 {
		t.Fatalf("top = %+v", s.Top)
	}
	if s.Top[0].Transfers != 1 || s.Top[1].Name != "dq[a]" || s.Top[1].Transfers != 2 {
		t.Fatalf("top order/transfer counts wrong: %+v", s.Top)
	}

	u.Reset()
	if u.Events() != 0 || u.Summary(0).HorizonPs != 0 {
		t.Fatal("reset should clear the aggregator")
	}
}

func TestUtilSummaryTopNBound(t *testing.T) {
	u := NewUtil()
	for i := 0; i < 30; i++ {
		u.Emit(Event{Kind: KindLinkBusy, Tier: TierBank,
			Link: strings.Repeat("x", i+1), Start: 0, End: int64(i + 1)})
	}
	if got := len(u.Summary(5).Top); got != 5 {
		t.Fatalf("topN = %d, want 5", got)
	}
	if got := len(u.Summary(0).Top); got != DefaultTopN {
		t.Fatalf("default topN = %d, want %d", got, DefaultTopN)
	}
}
