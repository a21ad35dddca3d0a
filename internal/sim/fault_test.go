package sim

import "testing"

func TestLinkFaultState(t *testing.T) {
	l := NewLink(1e9, 10*Nanosecond)
	if l.Faulty() || l.degrade != 1 {
		t.Fatal("new link not healthy")
	}
	_, fast := l.Reserve(0, 1000)
	l.Reset()
	l.Degrade(0.5)
	if !l.Faulty() || l.degrade != 0.5 {
		t.Fatalf("degrade 0.5: factor %v", l.degrade)
	}
	// Degraded transfers take proportionally longer.
	_, slow := l.Reserve(0, 1000)
	if slow != 2*fast-l.latency {
		t.Fatalf("degraded completion %v, healthy %v: serialization did not double", slow, fast)
	}

	l.Reset()
	l.Fail()
	if !l.Failed() || !l.Faulty() {
		t.Fatal("failed link not reported faulty")
	}
	start, done := l.Reserve(100, 1)
	if start != 100 || done != MaxTime {
		t.Fatalf("failed Reserve = (%v, %v), want (100, MaxTime)", start, done)
	}
}

// TestLinkResetPreservesFaults: Reset clears reservations but
// a broken wire must stay broken across experiment re-runs.
func TestLinkResetPreservesFaults(t *testing.T) {
	l := NewLink(1e9, 0)
	l.Fail()
	l.Reserve(0, 64)
	l.Reset()
	if !l.Failed() {
		t.Fatal("Reset repaired a hard failure")
	}
	if l.FreeAt() != 0 {
		t.Fatal("Reset did not clear dynamic state")
	}
	l = NewLink(1e9, 0)
	l.Degrade(0.25)
	l.Reset()
	if l.degrade != 0.25 {
		t.Fatal("Reset repaired a degradation")
	}
}

func TestDegradeRejectsBadFactor(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Degrade(%v) did not panic", f)
				}
			}()
			l := NewLink(1e9, 0)
			l.Degrade(f)
		}()
	}
	// Factor 1 is the healthy identity and must be accepted.
	l := NewLink(1e9, 0)
	l.Degrade(1)
}

// TestReserveAtExactCompletionInstant: a reservation arriving exactly when
// the previous transfer's serialization ends must start immediately, with no
// idle gap and no overlap.
func TestReserveAtExactCompletionInstant(t *testing.T) {
	l := NewLink(1e9, 5*Nanosecond) // 1 GB/s: 1 byte/ns
	_, _ = l.Reserve(0, 1000)       // wire busy [0, 1000ns)
	busyUntil := l.FreeAt()
	if busyUntil != 1000*Nanosecond {
		t.Fatalf("FreeAt = %v, want 1000ns", busyUntil)
	}
	start, done := l.Reserve(busyUntil, 500)
	if start != busyUntil {
		t.Fatalf("back-to-back start %v, want %v (no queueing at the exact boundary)", start, busyUntil)
	}
	if want := busyUntil + 500*Nanosecond + l.latency; done != want {
		t.Fatalf("done %v, want %v", done, want)
	}
}

// TestLinkHalfDuplexSharing: the rank bus is one Link shared by both
// directions, so opposing transfers serialize instead of overlapping.
func TestLinkHalfDuplexSharing(t *testing.T) {
	bus := NewLink(1e9, 0)
	_, aDone := bus.Reserve(0, 1000) // A -> B
	bStart, bDone := bus.Reserve(0, 1000)
	if bStart != aDone {
		t.Fatalf("opposing transfer started at %v, want %v (half-duplex must serialize)", bStart, aDone)
	}
	if bDone != 2000*Nanosecond {
		t.Fatalf("second transfer done %v, want 2000ns", bDone)
	}
	if bus.FreeAt() != bDone {
		t.Fatalf("bus free at %v, want %v (busy back to back)", bus.FreeAt(), bDone)
	}
}

// TestReserveZeroBytesOnBusyLink: zero-byte control messages still queue
// behind in-flight traffic but occupy the wire for no time.
func TestReserveZeroBytesOnBusyLink(t *testing.T) {
	l := NewLink(1e9, 7*Nanosecond)
	l.Reserve(0, 1000)
	start, done := l.Reserve(0, 0)
	if start != 1000*Nanosecond {
		t.Fatalf("zero-byte start %v, want 1000ns (FIFO behind in-flight bytes)", start)
	}
	if done != start+l.latency {
		t.Fatalf("zero-byte done %v, want start+latency %v", done, start+l.latency)
	}
	if l.FreeAt() != start {
		t.Fatalf("zero-byte transfer held the wire: FreeAt %v, want %v", l.FreeAt(), start)
	}
}

func TestAddSat(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 0, 0},
		{1, 2, 3},
		{MaxTime, 1, MaxTime},
		{1, MaxTime, MaxTime},
		{MaxTime, MaxTime, MaxTime},
		{MaxTime - 5, 5, MaxTime},
		{MaxTime - 5, 4, MaxTime - 1},
		{100, -50, 50},
	}
	for _, c := range cases {
		if got := AddSat(c.a, c.b); got != c.want {
			t.Errorf("AddSat(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	var s Schedule
	var fired []int
	s.Add(30, func() { fired = append(fired, 3) })
	s.Add(10, func() { fired = append(fired, 1) })
	s.Add(20, func() { fired = append(fired, 2) })
	s.Add(10, func() { fired = append(fired, 11) }) // same-instant tie: insertion order

	if n := s.ApplyUpTo(5); n != 0 {
		t.Fatalf("fired %d activations before their instants", n)
	}
	if n := s.ApplyUpTo(15); n != 2 {
		t.Fatalf("ApplyUpTo(15) fired %d, want 2", n)
	}
	if n := s.ApplyUpTo(15); n != 0 {
		t.Fatal("activations fired twice")
	}
	if n := s.ApplyUpTo(100); n != 2 {
		t.Fatalf("remaining fired %d, want 2", n)
	}
	want := []int{1, 11, 2, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}

	// Rewind re-arms without losing activations.
	s.Rewind()
	if n := s.ApplyUpTo(100); n != 4 {
		t.Fatalf("replay fired %d, want 4", n)
	}
}

func TestScheduleNegativeInstantClamps(t *testing.T) {
	var s Schedule
	ran := false
	s.Add(-5, func() { ran = true })
	s.ApplyUpTo(0)
	if !ran {
		t.Fatal("negative-instant activation did not fire at t=0")
	}
}
