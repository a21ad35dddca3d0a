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

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: position %d got %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.At(5, func() {
		hits = append(hits, e.Now())
		e.After(10, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 15 {
		t.Fatalf("nested scheduling hits = %v, want [5 15]", hits)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
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
		e := NewEngine()
		var seen []Time
		var maxT Time
		for _, r := range raw {
			at := Time(r)
			if at > maxT {
				maxT = at
			}
			e.At(at, func() { seen = append(seen, e.Now()) })
		}
		end := e.Run()
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
