package core

import (
	"sync"
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/trace"
)

func testNet(t testing.TB, dpus int) *Network {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(sys)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testReq(pat collective.Pattern, nodes int, bytes int64) collective.Request {
	return collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: bytes, ElemSize: 4, Nodes: nodes}
}

// TestBlueprintRoundTrip: a plan compiled on one network executes on a
// second, independently built network of the same topology to the identical
// result, and the bench-compatibility validators hand back the plan itself.
func TestBlueprintRoundTrip(t *testing.T) {
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllGather,
		collective.ReduceScatter, collective.AllToAll, collective.Broadcast} {
		src := testNet(t, 256)
		req := testReq(pat, 256, 32<<10)
		plan, err := PlanFor(src, req)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		bp, err := BlueprintOf(plan, src)
		if err != nil || bp != plan {
			t.Fatalf("%v: BlueprintOf = %p, %v; want the plan itself", pat, bp, err)
		}
		dst := testNet(t, 256)
		bound, err := bp.Bind(dst)
		if err != nil || bound != plan {
			t.Fatalf("%v: Bind = %p, %v; want the plan itself", pat, bound, err)
		}
		r1, err := src.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := dst.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Time != r2.Time || r1.Breakdown != r2.Breakdown {
			t.Errorf("%v: plan executed differently on a second network: %v vs %v", pat, r1, r2)
		}
	}
}

func TestBlueprintBindRejectsMismatchedTopology(t *testing.T) {
	src := testNet(t, 256)
	plan, err := PlanFor(src, testReq(collective.AllReduce, 256, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Bind(testNet(t, 64)); err == nil {
		t.Fatal("bound a 256-DPU plan to a 64-DPU network")
	}
}

func TestBlueprintBindRejectsFaultedNetwork(t *testing.T) {
	src := testNet(t, 256)
	plan, err := PlanFor(src, testReq(collective.AllReduce, 256, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	dst := testNet(t, 256)
	dst.links[0].Degrade(0.5)
	if dst.Pristine() {
		t.Fatal("degraded network still pristine")
	}
	if _, err := plan.Bind(dst); err == nil {
		t.Fatal("bound a cached plan to a faulted network")
	}
	dst.links[0].Degrade(1)
	if !dst.Pristine() {
		t.Fatal("restored network not pristine")
	}
	if _, err := plan.Bind(dst); err != nil {
		t.Fatalf("restored network refused bind: %v", err)
	}
}

// TestExecuteRejectsForeignTopology: a plan's link indices mean something
// only on its own topology, so Execute refuses a plan compiled for another.
func TestExecuteRejectsForeignTopology(t *testing.T) {
	plan, err := PlanFor(testNet(t, 64), testReq(collective.AllReduce, 64, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testNet(t, 256).Execute(plan); err == nil {
		t.Fatal("executed a 64-DPU plan on a 256-DPU network")
	}
	if _, err := testNet(t, 64).Execute(plan); err != nil {
		t.Fatalf("same-topology network refused the plan: %v", err)
	}
}

// TestLinkTable: linkAt inverts linkIndex over the whole table, the table
// is laid out ring, send, receive, bus, and a link-level trace names every
// busy link by linkName of the transfer's table index.
func TestLinkTable(t *testing.T) {
	n := testNet(t, 256)
	topo := n.Topo
	want := int32(0)
	check := func(role linkRole, rank, chip, bank int) {
		t.Helper()
		i, err := topo.linkIndex(role, rank, chip, bank)
		if err != nil || i != want {
			t.Fatalf("linkIndex(%d, %d, %d, %d) = %d, %v; want %d", role, rank, chip, bank, i, err, want)
		}
		if r, ra, c, b := topo.linkAt(i); r != role || ra != rank || c != chip || b != bank {
			t.Fatalf("linkAt(%d) = %d, %d, %d, %d", i, r, ra, c, b)
		}
		want++
	}
	for _, role := range []linkRole{roleRing, roleChipSend, roleChipRecv} {
		for r := 0; r < topo.Ranks; r++ {
			for c := 0; c < topo.Chips; c++ {
				banks := 1
				if role == roleRing {
					banks = topo.Banks
				}
				for b := 0; b < banks; b++ {
					check(role, r, c, b)
				}
			}
		}
	}
	check(roleBus, 0, 0, 0)
	if int(want) != len(n.links) || len(n.links) != topo.linkCount() {
		t.Fatalf("table has %d links, indexed %d, linkCount %d", len(n.links), want, topo.linkCount())
	}

	// The executor emits one KindLinkBusy per transfer, in plan order.
	rec := trace.NewRecorder(0)
	n.SetTracer(rec, trace.LevelLink)
	plan := mustPlan(t, n, testReq(collective.AllReduce, 256, 32<<10))
	if _, err := n.Execute(plan); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindLinkBusy {
			names = append(names, ev.Link)
		}
	}
	roles := map[linkRole]bool{}
	k := 0
	for _, ph := range plan.Phases {
		for _, st := range ph.Steps {
			for _, tr := range st.Transfers {
				if k >= len(names) {
					t.Fatalf("trace has %d busy events, plan has more transfers", len(names))
				}
				if want := topo.linkName(tr.Link); names[k] != want {
					t.Fatalf("busy event %d names %q, want %q", k, names[k], want)
				}
				role, _, _, _ := topo.linkAt(tr.Link)
				roles[role] = true
				k++
			}
		}
	}
	if k != len(names) || rec.Dropped() != 0 || len(roles) != 4 {
		t.Fatalf("%d transfers, %d busy events (%d dropped), %d link roles", k, len(names), rec.Dropped(), len(roles))
	}
	for _, bad := range [][4]int{{int(roleRing), topo.Ranks, 0, 0}, {int(roleRing), 0, -1, 0},
		{int(roleRing), 0, 0, topo.Banks}, {int(roleChipSend), 0, topo.Chips, 0}, {int(roleBus), -1, 0, 0}, {9, 0, 0, 0}} {
		if i, err := topo.linkIndex(linkRole(bad[0]), bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("linkIndex%v = %d, want error", bad, i)
		}
	}
}

// TestSharedPlanConcurrentExecute: workers that each own a network execute
// one plan shared through a PlanCache at the same time, and all get the
// result a private compile gets. Run under -race, it shows that executing
// a shared plan only reads it.
func TestSharedPlanConcurrentExecute(t *testing.T) {
	const workers = 4
	c := NewPlanCache()
	req := testReq(collective.AllToAll, 256, 16<<10)
	want, err := testNet(t, 256).Execute(mustPlan(t, testNet(t, 256), req))
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, workers)
	for i := range nets {
		nets[i] = testNet(t, 256)
	}
	if _, err := PlanVia(c, nets[0], req); err != nil { // fill
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, n := range nets {
		wg.Add(1)
		go func(n *Network) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				plan, err := PlanVia(c, n, req)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := n.Execute(plan)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Time != want.Time || got.Breakdown != want.Breakdown {
					t.Errorf("shared plan executed to %v, want %v", got, want)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	if s := c.Stats(); s.Misses != 1 || s.Hits != workers*5 {
		t.Fatalf("cache stats %+v, want 1 miss and %d hits", s, workers*5)
	}
}

// TestPlanViaWarmAllocs pins the warm path: a cache hit returns the shared
// plan without allocating.
func TestPlanViaWarmAllocs(t *testing.T) {
	c := NewPlanCache()
	n := testNet(t, 256)
	req := testReq(collective.AllToAll, 256, 32<<10)
	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := PlanVia(c, n, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm PlanVia allocates %v times per call, want 0", allocs)
	}
}

func mustPlan(t *testing.T, n *Network, req collective.Request) *Plan {
	t.Helper()
	p, err := PlanFor(n, req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanCacheCounters(t *testing.T) {
	c := NewPlanCache()
	n := testNet(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)

	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after first compile: %+v", s)
	}
	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after repeat: %+v", s)
	}
	// A different request is a different key.
	if _, err := PlanVia(c, n, testReq(collective.AllGather, 64, 4096)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after second pattern: %+v", s)
	}
	// A fresh cache (a restarted daemon's) starts empty and compiles again.
	c = NewPlanCache()
	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s != (CacheStats{Misses: 1, Entries: 1}) {
		t.Fatalf("fresh cache: %+v", s)
	}
}

// TestPlanViaBypassesFaultedNetwork: a non-pristine network must neither
// read from nor write to the shared cache — fault recompilation stays
// outside it.
func TestPlanViaBypassesFaultedNetwork(t *testing.T) {
	c := NewPlanCache()
	n := testNet(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)
	n.links[0].Degrade(0.25)

	plan, err := PlanVia(c, n, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("nil plan")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("faulted network touched the cache: %+v", s)
	}
	// Lifting the degradation re-enables caching.
	n.links[0].Degrade(1)
	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("restored network not cached: %+v", s)
	}
}

func TestPlanViaNilCache(t *testing.T) {
	n := testNet(t, 64)
	plan, err := PlanVia(nil, n, testReq(collective.AllReduce, 64, 4096))
	if err != nil || plan == nil {
		t.Fatalf("nil-cache compile: %v %v", plan, err)
	}
}

// TestKeyForDistinguishesStepOverhead: the same request on the same system
// with a different per-step overhead must occupy a distinct cache slot —
// the A1 ablation depends on this.
func TestKeyForDistinguishesStepOverhead(t *testing.T) {
	a := testNet(t, 64)
	b := testNet(t, 64)
	b.SetStepOverhead(1000)
	req := testReq(collective.AllReduce, 64, 4096)
	if KeyFor(a, req) == KeyFor(b, req) {
		t.Fatal("step overhead not part of the cache key")
	}
	if KeyFor(a, req) != KeyFor(testNet(t, 64), req) {
		t.Fatal("identical configurations produced distinct keys")
	}
}

// FuzzPlanCacheKey locks in the collision-freedom of the cache key: two
// (config, request, overhead) tuples map to the same key exactly when they
// are field-for-field equal. The key is a comparable struct, so Go's map
// semantics guarantee this; the fuzz target exists to catch a future
// refactor that replaces the struct key with a lossy digest.
func FuzzPlanCacheKey(f *testing.F) {
	f.Add(int64(32<<10), 64, 0, int64(0), int64(4096), 256, 1, int64(100))
	f.Add(int64(4096), 256, 1, int64(100), int64(4096), 256, 1, int64(100))
	f.Add(int64(0), 1, 3, int64(-1), int64(1), 2, 2, int64(7))
	f.Fuzz(func(t *testing.T, bytesA int64, nodesA, patA int, ohA int64,
		bytesB int64, nodesB, patB int, ohB int64) {
		sys := config.Default()
		mkKey := func(bytes int64, nodes, pat int, oh int64) PlanKey {
			return PlanKey{
				Sys: sys,
				Req: collective.Request{Pattern: collective.Pattern(pat % 8), Op: collective.Sum,
					BytesPerNode: bytes, ElemSize: 4, Nodes: nodes},
				StepOverheadPs: oh,
			}
		}
		ka := mkKey(bytesA, nodesA, patA, ohA)
		kb := mkKey(bytesB, nodesB, patB, ohB)
		tupleEqual := bytesA == bytesB && nodesA == nodesB && patA%8 == patB%8 && ohA == ohB

		if (ka == kb) != tupleEqual {
			t.Fatalf("key equality %v but tuple equality %v\nka=%+v\nkb=%+v",
				ka == kb, tupleEqual, ka, kb)
		}
		// And the map behaves accordingly: inserting under ka hits on kb
		// exactly when the tuples are equal.
		c := NewPlanCache()
		c.Insert(ka, &Plan{})
		_, ok := c.Lookup(kb)
		if ok != tupleEqual {
			t.Fatalf("cache hit=%v for tuple equality %v", ok, tupleEqual)
		}
	})
}

// TestKeyForSystemMatchesKeyFor: the network-free key path the serving tier
// uses must agree with the key a built network produces, for both the default
// and a configured step overhead.
func TestKeyForSystemMatchesKeyFor(t *testing.T) {
	n := testNet(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)
	if got, want := KeyForSystem(n.Sys, req, 0), KeyFor(n, req); got != want {
		t.Fatalf("KeyForSystem = %+v, KeyFor = %+v", got, want)
	}
	n.SetStepOverhead(250)
	if got, want := KeyForSystem(n.Sys, req, 250), KeyFor(n, req); got != want {
		t.Fatalf("with overhead: KeyForSystem = %+v, KeyFor = %+v", got, want)
	}
}

// TestPlanKeyDigest: equal keys digest identically; any single-parameter
// change produces a different digest.
func TestPlanKeyDigest(t *testing.T) {
	n := testNet(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)
	k := KeyFor(n, req)
	if k.Digest() != KeyForSystem(n.Sys, req, 0).Digest() {
		t.Fatal("equal keys digest differently")
	}
	variants := []PlanKey{
		KeyForSystem(n.Sys, testReq(collective.AllGather, 64, 4096), 0),
		KeyForSystem(n.Sys, testReq(collective.AllReduce, 64, 8192), 0),
		KeyForSystem(n.Sys, req, 77),
	}
	seen := map[string]bool{k.Digest(): true}
	for i, v := range variants {
		d := v.Digest()
		if seen[d] {
			t.Fatalf("variant %d digest collides: %s", i, d)
		}
		seen[d] = true
	}
}

// TestCacheStatsSub: the windowed delta arithmetic the sweep engine uses
// subtracts the counters and keeps the current entry count.
func TestCacheStatsSub(t *testing.T) {
	a := CacheStats{Hits: 10, Misses: 4, Entries: 3}
	b := CacheStats{Hits: 4, Misses: 1, Entries: 2}
	if d := a.Sub(b); d != (CacheStats{Hits: 6, Misses: 3, Entries: 3}) {
		t.Fatalf("Sub = %+v", d)
	}
}
