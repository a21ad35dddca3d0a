package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
)

// This file implements the compiled-plan cache. PIMnet's schedules are
// static and statically timed, and a network is a pure function of its
// config.System, so a healthy, untraced collective's answer is a pure
// function of its (system, request) pair: PlanKey. Sweeps that revisit a
// point — every weak-scaling study, every repeated workload iteration, every
// worker of a parallel sweep — share that answer instead of re-running the
// scheduler and the replay.
//
// The cache keeps each point's backend.Result, a few hundred bytes, not the
// compiled plan behind it: a backend compiles and replays a plan only on a
// miss, stores the result, and drops the plan. A hit builds no network.
//
// Invalidation rule: only healthy, untraced runs serve or populate the
// cache. A backend with an armed fault model or an attached tracer compiles
// and replays every request on its own network and never touches the cache,
// and recompiled (routed-around) plans stay in the per-backend recovery
// state (ftState.dplans).

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
	Sys config.System
	Req collective.Request
}

// KeyFor returns the cache key for compiling req on a network built from
// sys. A network is a function of its system, so this is also the serving
// tier's request identity: two requests with equal keys compile to the same
// plan, and a server can coalesce them before any network exists.
func KeyFor(sys config.System, req collective.Request) PlanKey {
	return PlanKey{Sys: sys, Req: req}
}

// Digest returns a hex SHA-256 over the key's canonical JSON encoding — a
// stable string form of the compilation point for logs, coalescing maps, and
// response bodies. PlanKey contains only scalar fields, so the encoding
// cannot fail and two equal keys always digest identically. The bytes
// hashed are {"Sys":…,"Req":…,"StepOverheadPs":N}: the system's JSON, which
// leaves out Net.StepOverhead, then the request's, then the step overhead,
// so every digest keeps the bytes it had when the overhead was a field of
// the key. The system's part is encoded once per distinct system
// (systemJSON), not once per key.
func (k PlanKey) Digest() string {
	req, err := json.Marshal(k.Req)
	if err != nil {
		panic(fmt.Sprintf("core: plan key not encodable: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(`{"Sys":`))
	h.Write(systemJSON(k.Sys))
	h.Write([]byte(`,"Req":`))
	h.Write(req)
	h.Write(strconv.AppendInt([]byte(`,"StepOverheadPs":`), int64(k.Sys.Net.StepOverhead), 10))
	h.Write([]byte(`}`))
	return hex.EncodeToString(h.Sum(nil))
}

// sysJSON memoizes the JSON encoding of each system a key has digested. A
// daemon sees few distinct systems, but their DPU counts come from
// requests, so the map is cleared once it holds sysJSONMax entries.
var sysJSON struct {
	sync.Mutex
	m map[config.System][]byte
}

const sysJSONMax = 64

// systemJSON returns json.Marshal(sys), encoding each distinct system once.
// The returned bytes are shared and must not be modified.
func systemJSON(sys config.System) []byte {
	sysJSON.Lock()
	defer sysJSON.Unlock()
	if b, ok := sysJSON.m[sys]; ok {
		return b
	}
	b, err := json.Marshal(sys)
	if err != nil {
		panic(fmt.Sprintf("core: plan key not encodable: %v", err))
	}
	if sysJSON.m == nil || len(sysJSON.m) >= sysJSONMax {
		sysJSON.m = make(map[config.System][]byte, sysJSONMax)
	}
	sysJSON.m[sys] = b
	return b
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// A hit is a cached answer and a miss is a compile.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}

// Sub returns the delta s - prev (for windowed measurements around a sweep).
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - prev.Hits, Misses: s.Misses - prev.Misses, Entries: s.Entries}
}

// PlanCache is a concurrency-safe map from a compilation point to the result
// of its healthy, untraced run, shared by all workers of a sweep. An entry is
// a few hundred bytes, so the cache is unbounded. It lives in memory only.
type PlanCache struct {
	mu      sync.Mutex
	results map[PlanKey]backend.Result
	hits    uint64
	misses  uint64
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{results: make(map[PlanKey]backend.Result)}
}

// Lookup returns the result cached under k. A miss is the signal that a
// compile is about to happen.
func (c *PlanCache) Lookup(k PlanKey) (backend.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.results[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return res, ok
}

// Insert stores res, the healthy, untraced run of k, under k.
func (c *PlanCache) Insert(k PlanKey, res backend.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[k] = res
}

// Stats snapshots the effectiveness counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.results)}
}
