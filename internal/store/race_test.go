package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentWritersReadersEvictor is the store's concurrency contract
// under the race detector: many goroutines write the same digest while many
// read it and eviction churn runs underneath. Readers must observe either
// absence or one complete, valid blob — never a partial write, never bytes
// that differ from what the writers agreed on.
func TestConcurrentWritersReadersEvictor(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	hot := key("hot")
	want := []byte("the agreed-upon deterministic result")
	// A tight budget so churn writes below continuously trigger eviction —
	// including, sometimes, of the hot key (absence is a legal observation).
	s.max = 8 * int64(headerSize+len(want))

	const writers, readers, churns = 8, 8, 64
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 32; j++ {
				if err := s.Put(NSResults, hot, want); err != nil {
					t.Errorf("agreeing duplicate write failed: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 64; j++ {
				if got, ok := s.Get(NSResults, hot); ok && !bytes.Equal(got, want) {
					t.Errorf("reader saw %q, want %q or absence", got, want)
					return
				}
			}
		}()
	}
	// The evictor: distinct keys churning through the byte budget.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < churns; j++ {
			s.Put(NSResults, key(fmt.Sprint("churn", j)), want)
		}
	}()
	wg.Wait()

	st := s.Stats()
	if st.Divergent != 0 {
		t.Fatalf("agreeing writers counted divergent: %+v", st)
	}
	if st.Corrupt != 0 {
		t.Fatalf("concurrent traffic produced corruption: %+v", st)
	}
	if st.Bytes > s.max {
		t.Fatalf("budget breached: %d > %d", st.Bytes, s.max)
	}
}

// TestConcurrentDivergentWritersRejectLoudly mirrors the cluster
// reassembler's disagreeing-duplicate rule at the store layer: when two
// populations of writers race different bytes onto one key, exactly one
// payload wins, every writer of the other payload gets ErrDivergent, and no
// reader ever sees a third thing.
func TestConcurrentDivergentWritersRejectLoudly(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	k := key("contested")
	a, b := []byte("payload A"), []byte("payload B")

	const perSide = 8
	errsA := make([]error, perSide)
	errsB := make([]error, perSide)
	var wg sync.WaitGroup
	for i := 0; i < perSide; i++ {
		wg.Add(2)
		go func(i int) { defer wg.Done(); errsA[i] = s.Put(NSResults, k, a) }(i)
		go func(i int) { defer wg.Done(); errsB[i] = s.Put(NSResults, k, b) }(i)
	}
	wg.Wait()

	got, ok := s.Get(NSResults, k)
	if !ok {
		t.Fatal("contested key absent after the race")
	}
	var winner, loser []byte
	var loserErrs []error
	switch {
	case bytes.Equal(got, a):
		winner, loser, loserErrs = a, b, errsB
	case bytes.Equal(got, b):
		winner, loser, loserErrs = b, a, errsA
	default:
		t.Fatalf("reader saw %q, which neither side wrote", got)
	}
	_ = winner
	for i, err := range loserErrs {
		if !errors.Is(err, ErrDivergent) {
			t.Fatalf("loser writer %d of %q: err = %v, want ErrDivergent", i, loser, err)
		}
	}
	if st := s.Stats(); st.Divergent != perSide {
		t.Fatalf("Divergent = %d, want %d", st.Divergent, perSide)
	}
}
