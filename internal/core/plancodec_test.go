package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"pimnet/internal/collective"
)

// testPlan compiles a real plan and returns it with its cache key.
func testPlan(t *testing.T, dpus int) (*Plan, PlanKey) {
	t.Helper()
	n := testNet(t, dpus)
	req := testReq(collective.AllReduce, dpus, 32<<10)
	plan, err := PlanFor(n, req)
	if err != nil {
		t.Fatal(err)
	}
	return plan, KeyFor(n, req)
}

// TestPlanCodecRoundTrip: encode -> decode preserves the compiled artifact
// exactly — same digest, verified, executes identically to the original —
// and re-encoding is byte-deterministic (the property FuzzStoreRoundTrip
// relies on from the store side).
func TestPlanCodecRoundTrip(t *testing.T) {
	plan, _ := testPlan(t, 256)
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != plan.Digest() {
		t.Fatalf("digest changed across codec: %s vs %s", back.Digest(), plan.Digest())
	}
	if !back.verified {
		t.Fatal("decoded plan is not verified")
	}
	again, err := EncodePlan(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("encode -> decode -> encode is not byte-identical")
	}

	// The decoded artifact is a working plan, not just matching hashes.
	n := testNet(t, 256)
	r1, err := n.Execute(back)
	if err != nil {
		t.Fatal(err)
	}
	n2 := testNet(t, 256)
	r2, err := n2.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.Breakdown != r2.Breakdown {
		t.Fatalf("decoded plan executed differently: %v vs %v", r1, r2)
	}
}

// TestPlanCodecRejects: every malformed envelope shape errors — and never
// panics, never returns a plan that is not the encoded one or that could
// reach outside its topology.
func TestPlanCodecRejects(t *testing.T) {
	plan, _ := testPlan(t, 64)
	good, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	// reencode re-digests a plan edited after decoding, so only the later
	// checks can catch the edit.
	reencode := func(edit func(p *Plan)) []byte {
		p, err := DecodePlan(good)
		if err != nil {
			t.Fatal(err)
		}
		edit(p)
		data, err := json.Marshal(planEnvelope{Digest: p.Digest(), Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bus := int32(plan.Topo.linkCount() - 1)

	cases := map[string][]byte{
		"not json":          []byte("certainly { not json"),
		"empty":             {},
		"no plan":           []byte(`{"digest": "abc"}`),
		"null plan":         []byte(`{"digest": "abc", "plan": null}`),
		"truncated":         good[:len(good)/2],
		"tampered digest":   bytes.Replace(good, []byte(plan.Digest()[:16]), []byte("0123456789abcdef"), 1),
		"tampered schedule": bytes.Replace(good, []byte(`"MemBytes":`), []byte(`"MemBytes":1`), 1),
		"zero topology":     []byte(`{"digest": "abc", "plan": {"Topo": {}, "Phases": [{"Steps": [{"Transfers": [{"Link": 5}]}]}]}}`),
		"huge topology": []byte(`{"digest": "abc", "plan": {"Topo": {"Ranks": 1, "Chips": 4294967296, "Banks": 4294967296},
			"Phases": [{"Steps": [{"Transfers": [{"Link": -1}]}]}]}}`),
		"link past table": reencode(func(p *Plan) { p.Phases[0].Steps[0].Transfers[0].Link = bus + 1 }),
		"negative link":   reencode(func(p *Plan) { p.Phases[0].Steps[0].Transfers[0].Link = -1 }),
		"contended bus": reencode(func(p *Plan) {
			st := &p.Phases[0].Steps[0]
			st.Transfers = append(st.Transfers, Transfer{Link: bus, Kind: KindBus}, Transfer{Link: bus, Kind: KindBus})
		}),
		"dead transfer": reencode(func(p *Plan) { p.Phases[0].Steps[0].Transfers[0].Dead = true }),
	}
	for name, data := range cases {
		if got, err := DecodePlan(data); err == nil {
			t.Errorf("%s: decoded to %v, want error", name, got)
		}
	}

	if _, err := EncodePlan(nil); err == nil {
		t.Error("EncodePlan(nil) succeeded")
	}
}

// memStore is an in-memory PlanStore that records traffic — the test
// double for the persistence hook.
type memStore struct {
	m      map[PlanKey][]byte
	loads  int
	stores int
	// corruptAll makes every stored payload undecodable, modeling a store
	// whose blobs survived but whose codec drifted.
	corruptAll bool
}

func newMemStore() *memStore { return &memStore{m: make(map[PlanKey][]byte)} }

func (p *memStore) LoadPlan(k PlanKey) (*Plan, bool) {
	p.loads++
	data, ok := p.m[k]
	if !ok {
		return nil, false
	}
	plan, err := DecodePlan(data)
	if err != nil {
		return nil, false
	}
	return plan, true
}

func (p *memStore) StorePlan(k PlanKey, plan *Plan) {
	p.stores++
	data, err := EncodePlan(plan)
	if err != nil {
		return
	}
	if p.corruptAll {
		data = []byte("x" + string(data))
	}
	p.m[k] = data
}

// TestPlanCachePersistenceReadThrough: a fresh cache over a warm
// persistence layer serves lookups as DiskHits with zero Misses — the
// warm-restart contract at the cache layer — and promotes the loaded
// plan so the second lookup is a pure memory hit.
func TestPlanCachePersistenceReadThrough(t *testing.T) {
	plan, k := testPlan(t, 64)
	p := newMemStore()
	p.StorePlan(k, plan)
	p.stores = 0

	c := NewPlanCache()
	c.SetPersistence(p)
	got, ok := c.Lookup(k)
	if !ok {
		t.Fatal("warm persistence layer missed")
	}
	if got.Digest() != plan.Digest() {
		t.Fatalf("persisted lookup changed the plan: %s vs %s", got.Digest(), plan.Digest())
	}
	if st := c.Stats(); st.Misses != 0 || st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("after disk hit: %+v", st)
	}
	if _, ok := c.Lookup(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c.Stats(); st.Hits != 1 || st.DiskHits != 1 || p.loads != 1 {
		t.Fatalf("promotion did not stick: %+v, loads %d", st, p.loads)
	}
}

// TestPlanCachePersistenceWriteBehind: Insert feeds the persistence layer,
// and a second cache over the same layer starts warm — while Reset (the
// in-process restart) keeps the durable entries by design.
func TestPlanCachePersistenceWriteBehind(t *testing.T) {
	plan, k := testPlan(t, 64)
	p := newMemStore()
	c := NewPlanCache()
	c.SetPersistence(p)
	c.Insert(k, plan)
	if p.stores != 1 {
		t.Fatalf("stores = %d, want 1", p.stores)
	}

	c2 := NewPlanCache()
	c2.SetPersistence(p)
	if _, ok := c2.Lookup(k); !ok {
		t.Fatal("second cache over the same layer is cold")
	}

	c.Reset()
	if _, ok := c.Lookup(k); !ok {
		t.Fatal("Reset dropped the durable entry")
	}
	if st := c.Stats(); st.Misses != 0 || st.DiskHits != 1 {
		t.Fatalf("post-Reset lookup: %+v", st)
	}
}

// TestPlanCachePersistenceMissAndDetach: a cold layer is a plain Miss; a
// detached cache never consults the layer again.
func TestPlanCachePersistenceMissAndDetach(t *testing.T) {
	_, k := testPlan(t, 64)
	p := newMemStore()
	c := NewPlanCache()
	c.SetPersistence(p)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("cold everything reported a hit")
	}
	if st := c.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("cold lookup: %+v", st)
	}

	c.SetPersistence(nil)
	c.Lookup(k)
	if p.loads != 1 {
		t.Fatalf("detached cache still consulted the layer: loads = %d", p.loads)
	}
}

// TestPlanViaWithPersistence is the end-to-end cache-layer warm restart:
// compile once through PlanVia, then a brand-new cache over the same layer
// must serve the same schedule with zero compiles (Misses == 0) and execute
// identically.
func TestPlanViaWithPersistence(t *testing.T) {
	p := newMemStore()
	c := NewPlanCache()
	c.SetPersistence(p)
	n := testNet(t, 256)
	req := testReq(collective.AllGather, 256, 16<<10)
	plan1, err := PlanVia(c, n, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || p.stores != 1 {
		t.Fatalf("cold compile: %+v, stores %d", st, p.stores)
	}

	warm := NewPlanCache() // the restarted process
	warm.SetPersistence(p)
	n2 := testNet(t, 256)
	plan2, err := PlanVia(warm, n2, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Misses != 0 || st.DiskHits != 1 {
		t.Fatalf("warm restart still compiled: %+v", st)
	}
	r1, err := n.Execute(plan1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := n2.Execute(plan2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.Breakdown != r2.Breakdown {
		t.Fatalf("restored plan executed differently: %v vs %v", r1, r2)
	}
}

// TestPlanCachePersistenceSurvivesCorruptLayer: a layer whose payloads no
// longer decode degrades to recompute — lookups miss, PlanVia compiles,
// nothing panics, nothing wrong is served.
func TestPlanCachePersistenceSurvivesCorruptLayer(t *testing.T) {
	p := newMemStore()
	p.corruptAll = true
	c := NewPlanCache()
	c.SetPersistence(p)
	n := testNet(t, 64)
	req := testReq(collective.ReduceScatter, 64, 4<<10)
	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}

	fresh := NewPlanCache()
	fresh.SetPersistence(p)
	n2 := testNet(t, 64)
	if _, err := PlanVia(fresh, n2, req); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("corrupt layer produced a disk hit: %+v", st)
	}
}

// TestCacheStatsSubIncludesDiskHits: the windowed delta arithmetic the
// sweep engine uses must cover the new counter.
func TestCacheStatsSubIncludesDiskHits(t *testing.T) {
	a := CacheStats{Hits: 10, Misses: 4, DiskHits: 6, Entries: 3}
	b := CacheStats{Hits: 4, Misses: 1, DiskHits: 2, Entries: 2}
	d := a.Sub(b)
	if d.Hits != 6 || d.Misses != 3 || d.DiskHits != 4 || d.Entries != 3 {
		t.Fatalf("Sub = %+v", d)
	}
}
