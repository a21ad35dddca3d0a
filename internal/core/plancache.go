package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"pimnet/internal/collective"
	"pimnet/internal/config"
)

// This file implements the compiled-plan cache. PIMnet's schedules are
// static: the same (system, request, step-overhead) tuple always compiles to
// the same plan, so sweeps that revisit a point — every weak-scaling study,
// every repeated workload iteration, every worker of a parallel sweep — can
// share one compilation instead of re-running the scheduler.
//
// A Plan names its links by index into its topology's link table, not by
// pointer into one Network, so the cache stores the verified *Plan itself
// and a hit returns it with no copy. Each sweep worker executes the shared
// plan on its own network, whose links carry the mutable reservation state.
// Shared plans are read-only.
//
// Invalidation rule: the shared cache only ever serves and learns from
// pristine networks. Any hard fault, installed chip reordering, or
// degraded/failed link makes a network non-pristine; PlanVia then falls
// through to a direct compile, and recompiled (routed-around) plans stay in
// the per-backend recovery state (ftState.dplans), never in the shared
// cache.

// BlueprintOf checks that p is a healthy plan compiled for n's topology and
// returns p itself. It and Bind remain only because the benchmark ladder
// still calls them; both go with the next change to the benchmark.
func BlueprintOf(p *Plan, n *Network) (*Plan, error) { return p, p.sharableOn(n) }

// Bind checks that p can run on n — same topology, pristine network, no
// dead transfers — and returns p itself. See BlueprintOf.
func (p *Plan) Bind(n *Network) (*Plan, error) { return p, p.sharableOn(n) }

// sharableOn reports why p may not be shared with network n, if it may not.
func (p *Plan) sharableOn(n *Network) error {
	if p.Topo != n.Topo {
		return fmt.Errorf("core: plan topology %v != network topology %v", p.Topo, n.Topo)
	}
	if !n.Pristine() {
		return errors.New("core: cannot share a cached plan with a faulted network")
	}
	return p.checkHealthy()
}

// checkHealthy rejects a plan that routes a transfer through a stuck
// crossbar pairing: such a plan belongs to one faulted network and is never
// cached.
func (p *Plan) checkHealthy() error {
	for _, ph := range p.Phases {
		for si, st := range ph.Steps {
			for _, tr := range st.Transfers {
				if tr.Dead {
					return fmt.Errorf("core: phase %s step %d: dead transfer is not cacheable", ph.Name, si)
				}
			}
		}
	}
	return nil
}

// Digest returns a hex SHA-256 over the canonical binary encoding of the
// plan — the identity of the compiled artifact. Each transfer contributes
// its link's (role, rank, chip, bank) coordinate, its kind and its bytes.
// The golden-trace corpus pins these digests; any change to the compiler's
// output changes them and must be an intentional, reviewed regeneration.
func (p *Plan) Digest() string {
	h := sha256.New()
	w := func(vs ...int64) {
		for _, v := range vs {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	w(int64(p.Req.Pattern), int64(p.Req.Op), p.Req.BytesPerNode,
		int64(p.Req.ElemSize), int64(p.Req.Nodes), int64(p.Req.Root))
	w(int64(p.Topo.Ranks), int64(p.Topo.Chips), int64(p.Topo.Banks), p.MemBytes)
	w(int64(len(p.Phases)))
	for _, ph := range p.Phases {
		w(int64(len(ph.Name)))
		h.Write([]byte(ph.Name))
		pipe := int64(0)
		if ph.Pipelined {
			pipe = 1
		}
		w(int64(ph.Tier), pipe, int64(len(ph.Steps)))
		for _, st := range ph.Steps {
			w(st.ReduceBytesPerNode, int64(len(st.Transfers)))
			for _, tr := range st.Transfers {
				role, rank, chip, bank := p.Topo.linkAt(tr.Link)
				w(int64(role), int64(rank), int64(chip), int64(bank), int64(tr.Kind), tr.Bytes)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// PlanKey identifies one compilation point. config.System and
// collective.Request contain only scalar fields, so the struct is comparable
// and two keys are equal exactly when every parameter that can influence the
// compiled schedule is equal — the language's map semantics guarantee
// collision-freedom (locked in by FuzzPlanCacheKey).
type PlanKey struct {
	Sys            config.System
	Req            collective.Request
	StepOverheadPs int64
}

// KeyFor returns the cache key for compiling req on n as configured.
func KeyFor(n *Network, req collective.Request) PlanKey {
	return PlanKey{Sys: n.Sys, Req: req, StepOverheadPs: n.stepOverheadPs}
}

// KeyForSystem returns the cache key a network built from sys with the given
// step overhead would produce for req, without constructing the network.
// This is the serving tier's request identity: two requests with equal keys
// compile to the same plan, so a server can coalesce them onto one
// execution before any simulation state exists. It must stay consistent with
// KeyFor (locked in by TestKeyForSystemMatchesKeyFor).
func KeyForSystem(sys config.System, req collective.Request, stepOverheadPs int64) PlanKey {
	return PlanKey{Sys: sys, Req: req, StepOverheadPs: stepOverheadPs}
}

// Digest returns a hex SHA-256 over the key's canonical JSON encoding — a
// stable string form of the compilation point for logs, coalescing maps, and
// response bodies. PlanKey contains only scalar fields, so the encoding
// cannot fail and two equal keys always digest identically.
func (k PlanKey) Digest() string {
	b, err := json.Marshal(k)
	if err != nil {
		panic(fmt.Sprintf("core: plan key not encodable: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Misses count compiles.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}

// Sub returns the delta s - prev (for windowed measurements around a sweep).
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - prev.Hits, Misses: s.Misses - prev.Misses, Entries: s.Entries}
}

// PlanCache is a concurrency-safe keyed store of verified compiled plans,
// shared by all workers of a sweep. It lives in memory only: recompiling a
// plan is cheaper than reading it back from disk.
type PlanCache struct {
	mu     sync.Mutex
	plans  map[PlanKey]*Plan
	hits   uint64
	misses uint64
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[PlanKey]*Plan)}
}

// Lookup returns the plan cached under k. A miss is the signal that a
// compile is about to happen.
func (c *PlanCache) Lookup(k PlanKey) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.plans[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return p, ok
}

// Insert stores p under k. From then on p is shared and read-only: the
// cache and every executor read the same instance, so p must already be
// verified (the pristine-only rule is upstream: only plans compiled on
// pristine networks ever reach Insert).
func (c *PlanCache) Insert(k PlanKey, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans[k] = p
}

// Stats snapshots the effectiveness counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.plans)}
}

// PlanVia compiles req for n through the cache. A hit returns the shared,
// read-only plan itself. A nil cache or a non-pristine network falls
// through to a direct PlanFor — the cache never observes fault state in
// either direction, which is the whole invalidation story: fault
// recompilation happens outside it.
func PlanVia(c *PlanCache, n *Network, req collective.Request) (*Plan, error) {
	if c == nil || !n.Pristine() {
		return PlanFor(n, req)
	}
	k := KeyFor(n, req)
	if p, ok := c.Lookup(k); ok {
		return p, nil
	}
	p, err := PlanFor(n, req) // verified: PlanFor runs CheckContention
	if err != nil {
		return nil, err
	}
	c.Insert(k, p)
	return p, nil
}
