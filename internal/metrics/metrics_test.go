package metrics

import (
	"encoding/json"
	"strings"
	"testing"

	"pimnet/internal/sim"
)

func TestAddGetTotal(t *testing.T) {
	var b Breakdown
	b.Add(Compute, 10*sim.Microsecond)
	b.Add(InterBank, 5*sim.Microsecond)
	b.Add(InterBank, 5*sim.Microsecond)
	if got := b.Get(InterBank); got != 10*sim.Microsecond {
		t.Fatalf("InterBank = %v", got)
	}
	if got := b.Total(); got != 20*sim.Microsecond {
		t.Fatalf("Total = %v", got)
	}
	if got := b.CommTotal(); got != 10*sim.Microsecond {
		t.Fatalf("CommTotal = %v", got)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	var b Breakdown
	b.Add(Compute, -1)
}

func TestUnknownComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown component did not panic")
		}
	}()
	var b Breakdown
	b.Add(Component(99), 1)
}

func TestMergeScaleFraction(t *testing.T) {
	var a, b Breakdown
	a.Add(Compute, 3*sim.Microsecond)
	b.Add(Compute, 1*sim.Microsecond)
	b.Add(Sync, 4*sim.Microsecond)
	a.Merge(b)
	if a.Get(Compute) != 4*sim.Microsecond || a.Get(Sync) != 4*sim.Microsecond {
		t.Fatalf("merge wrong: %v", a.String())
	}
	a.Scale(2)
	if a.Total() != 16*sim.Microsecond {
		t.Fatalf("scale wrong: %v", a.Total())
	}
	if f := a.Fraction(Sync); f != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", f)
	}
	var empty Breakdown
	if f := empty.Fraction(Compute); f != 0 {
		t.Fatalf("empty fraction = %v", f)
	}
}

func TestComponentNames(t *testing.T) {
	want := []string{"compute", "inter-bank", "inter-chip", "inter-rank",
		"host-xfer", "host-compute", "launch", "sync", "mem", "recovery",
		"cxl-link"}
	comps := Components()
	if len(comps) != len(want) {
		t.Fatalf("%d components, want %d", len(comps), len(want))
	}
	for i, c := range comps {
		if c.String() != want[i] {
			t.Errorf("component %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if got := Component(-1).String(); !strings.Contains(got, "component(") {
		t.Errorf("invalid component String = %q", got)
	}
}

func TestStringOrdersBySize(t *testing.T) {
	var b Breakdown
	b.Add(Sync, 1*sim.Nanosecond)
	b.Add(Compute, 3*sim.Nanosecond)
	b.Add(Mem, 2*sim.Nanosecond)
	s := b.String()
	ci := strings.Index(s, "compute")
	mi := strings.Index(s, "mem")
	si := strings.Index(s, "sync")
	if !(ci < mi && mi < si) {
		t.Fatalf("String not ordered by size: %q", s)
	}
}

func TestReset(t *testing.T) {
	var b Breakdown
	b.Add(Compute, sim.Second)
	b.Reset()
	if b.Total() != 0 {
		t.Fatal("Reset left residue")
	}
}

func TestBreakdownJSONRoundTrip(t *testing.T) {
	var b Breakdown
	b.Add(Compute, 10*sim.Microsecond)
	b.Add(InterBank, 3*sim.Nanosecond)
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	// Map keys are sorted by encoding/json: equal breakdowns must encode to
	// identical bytes (the serving tier's bit-identical-response contract).
	data2, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("non-deterministic encoding: %s vs %s", data, data2)
	}
	var back Breakdown
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != b {
		t.Fatalf("round trip: got %v, want %v", back.String(), b.String())
	}
}

func TestBreakdownUnmarshalRejectsBadInput(t *testing.T) {
	var b Breakdown
	if err := json.Unmarshal([]byte(`{"no-such-component":1}`), &b); err == nil {
		t.Fatal("unknown component accepted")
	}
	if err := json.Unmarshal([]byte(`{"compute":-5}`), &b); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &b); err == nil {
		t.Fatal("non-object accepted")
	}
}
