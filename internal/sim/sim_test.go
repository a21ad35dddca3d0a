package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Microsecond).Seconds(); got != 2e-6 {
		t.Fatalf("Seconds = %v, want 2e-6", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.00ns"},
		{3 * Microsecond, "3.00us"},
		{4 * Millisecond, "4.00ms"},
		{5 * Second, "5.000s"},
		{-2 * Nanosecond, "-2.00ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestCycles(t *testing.T) {
	// 350 MHz: one cycle is 1/350e6 s = 2857.14... ps, rounded up to 2858.
	if got := Cycles(1, 350e6); got != 2858 {
		t.Fatalf("Cycles(1, 350MHz) = %v ps, want 2858", int64(got))
	}
	if got := Cycles(350e6, 350e6); got != Second {
		t.Fatalf("Cycles(freq, freq) = %v, want 1s", got)
	}
	if got := Cycles(0, 350e6); got != 0 {
		t.Fatalf("Cycles(0) = %v, want 0", got)
	}
	if got := Cycles(5, 0); got != 0 {
		t.Fatalf("Cycles with zero freq = %v, want 0", got)
	}
}

func TestTransferTime(t *testing.T) {
	// 1 KB at 1 GB/s = 1 us.
	if got := TransferTime(1000, 1e9); got != Microsecond {
		t.Fatalf("TransferTime = %v, want 1us", got)
	}
	if got := TransferTime(0, 1e9); got != 0 {
		t.Fatalf("zero bytes = %v, want 0", got)
	}
	if got := TransferTime(10, 0); got != MaxTime {
		t.Fatalf("zero bandwidth = %v, want MaxTime", got)
	}
}

// drain dispatches e's events to handle until none remain and returns the
// final simulated time.
func drain(e *Engine, handle func(Event)) Time {
	for ev, ok := e.Next(); ok; ev, ok = e.Next() {
		if ev.At != e.Now() {
			panic("Next did not advance the clock to the event")
		}
		handle(ev)
	}
	return e.Now()
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int32
	e.At(30, 0, 3, 0)
	e.At(10, 0, 1, 0)
	e.At(20, 0, 2, 0)
	end := drain(&e, func(ev Event) { order = append(order, ev.A) })
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	var e Engine
	for i := int32(0); i < 50; i++ {
		e.At(100, uint8(i), i, -i)
	}
	var order []Event
	drain(&e, func(ev Event) { order = append(order, ev) })
	if len(order) != 50 {
		t.Fatalf("ran %d events, want 50", len(order))
	}
	for i, ev := range order {
		if ev.A != int32(i) || ev.B != -ev.A || ev.Kind != uint8(i) {
			t.Fatalf("simultaneous events reordered: position %d got %+v", i, ev)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var hits []Time
	e.At(5, 0, 0, 0)
	drain(&e, func(ev Event) {
		hits = append(hits, e.Now())
		if ev.Kind == 0 {
			e.At(e.Now()+10, 1, 0, 0)
		}
	})
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 15 {
		t.Fatalf("nested scheduling hits = %v, want [5 15]", hits)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(100, 0, 0, 0)
	drain(&e, func(Event) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, 0, 0, 0)
	})
}

func TestLinkSerialization(t *testing.T) {
	l := NewLink(1e9, 10*Nanosecond) // 1 GB/s, 10ns latency
	s1, d1 := l.Reserve(0, 1000)     // 1us serialization
	if s1 != 0 || d1 != Microsecond+10*Nanosecond {
		t.Fatalf("first reserve: start=%v done=%v", s1, d1)
	}
	// Second transfer requested at t=0 must queue behind the first.
	s2, d2 := l.Reserve(0, 1000)
	if s2 != Microsecond {
		t.Fatalf("second reserve start=%v, want 1us", s2)
	}
	if d2 != 2*Microsecond+10*Nanosecond {
		t.Fatalf("second reserve done=%v", d2)
	}
	// A transfer requested after the wire is idle starts immediately.
	s3, d3 := l.Reserve(5*Microsecond, 500)
	if s3 != 5*Microsecond {
		t.Fatalf("third reserve start=%v, want 5us", s3)
	}
	// The wire frees when the last byte leaves; it lands a latency later.
	if l.FreeAt() != 5500*Nanosecond || d3 != l.FreeAt()+10*Nanosecond {
		t.Fatalf("third reserve: free=%v done=%v", l.FreeAt(), d3)
	}
}

func TestLinkZeroByteTransfer(t *testing.T) {
	l := NewLink(1e9, 5*Nanosecond)
	s, d := l.Reserve(100, 0)
	if s != 100 || d != 100+5*Nanosecond {
		t.Fatalf("zero-byte transfer start=%v done=%v", s, d)
	}
}

func TestLinkReset(t *testing.T) {
	l := NewLink(2e9, 0)
	l.Reserve(0, 4096)
	l.Reset()
	if l.FreeAt() != 0 {
		t.Fatal("Reset did not clear dynamic state")
	}
	if start, _ := l.Reserve(0, 1); start != 0 {
		t.Fatalf("reservation after Reset started at %v, want 0", start)
	}
	if l.bwBps != 2e9 {
		t.Fatal("Reset cleared configuration")
	}
}

// Property: link reservations are monotone — the start of reservation i+1
// is never before the start of reservation i, and done >= start always.
func TestLinkMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLink(1+rng.Float64()*1e10, Time(rng.Intn(1000))*Nanosecond)
		var lastStart Time = -1
		at := Time(0)
		for i := 0; i < 100; i++ {
			at += Time(rng.Intn(100)) * Nanosecond
			s, d := l.Reserve(at, int64(rng.Intn(1<<16)))
			if s < lastStart || d < s || s < at {
				return false
			}
			lastStart = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine executes any set of events in nondecreasing time
// order and ends at the maximum timestamp.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var e Engine
		var seen []Time
		var maxT Time
		for _, r := range raw {
			at := Time(r)
			if at > maxT {
				maxT = at
			}
			e.At(at, 0, 0, 0)
		}
		end := drain(&e, func(Event) { seen = append(seen, e.Now()) })
		if end != maxT || len(seen) != len(raw) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
