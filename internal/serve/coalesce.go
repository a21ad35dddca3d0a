package serve

import (
	"context"
	"sync"
)

// response is one fully rendered HTTP outcome: status plus a marshaled JSON
// body.
type response struct {
	status     int
	body       []byte
	retryAfter bool
}

// flight is one in-progress point execution that duplicate points can join.
type flight struct {
	done chan struct{}
	out  outcome
}

// flightGroup implements single-flight coalescing over point keys: the first
// request to reach a point becomes its leader and settles it; concurrent
// requests for the same point — from any endpoint — wait for the leader's
// outcome instead of executing it again, then render it into their own
// bodies. A flight ends when the leader publishes; later identical points
// start a fresh flight (simulations are deterministic, so they get the same
// record either way, and the result store usually answers them).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the key's flight and whether the caller is its leader.
func (g *flightGroup) join(k string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[k]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[k] = f
	return f, true
}

// finish publishes the leader's outcome and wakes every follower. The leader
// must always call it, including on error paths — an unfinished flight would
// strand followers until their deadlines.
func (g *flightGroup) finish(k string, f *flight, o outcome) {
	g.mu.Lock()
	delete(g.m, k)
	g.mu.Unlock()
	f.out = o
	close(f.done)
}

// wait blocks until the flight completes or ctx expires.
func (f *flight) wait(ctx context.Context) (outcome, error) {
	select {
	case <-f.done:
		return f.out, nil
	case <-ctx.Done():
		return outcome{}, ctx.Err()
	}
}
