package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/faults"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

func testNet(t testing.TB, dpus int) *Network {
	t.Helper()
	n, err := NewNetwork(testSys(t, dpus))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testSys returns the default system resized to dpus DPUs.
func testSys(t testing.TB, dpus int) config.System {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatal(err)
	}
	return sys
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
// one compiled plan at the same time, and all get the result a private
// compile gets. Run under -race, it shows that executing a plan only reads
// it.
func TestSharedPlanConcurrentExecute(t *testing.T) {
	const workers = 4
	req := testReq(collective.AllToAll, 256, 16<<10)
	want, err := testNet(t, 256).Execute(mustPlan(t, testNet(t, 256), req))
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, testNet(t, 256), req)
	var wg sync.WaitGroup
	for range workers {
		n := testNet(t, 256)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := n.Execute(plan)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("shared plan executed to %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func mustPlan(t *testing.T, n *Network, req collective.Request) *Plan {
	t.Helper()
	p, err := PlanFor(n, req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cachedPIMnet returns a fresh dpus-DPU PIMnet backend attached to c.
func cachedPIMnet(t testing.TB, dpus int, c *PlanCache) *PIMnet {
	t.Helper()
	p, err := NewPIMnet(testSys(t, dpus))
	if err != nil {
		t.Fatal(err)
	}
	return p.WithPlanCache(c)
}

func mustCollective(t testing.TB, p *PIMnet, req collective.Request) backend.Result {
	t.Helper()
	res, err := p.Collective(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanCacheCounters: a miss compiles and stores a result, a repeat is a
// hit on any backend of the same system, and a hit builds no network.
func TestPlanCacheCounters(t *testing.T) {
	c := NewPlanCache()
	req := testReq(collective.AllReduce, 64, 4096)

	first := cachedPIMnet(t, 64, c)
	miss := mustCollective(t, first, req)
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after first compile: %+v", s)
	}
	second := cachedPIMnet(t, 64, c)
	if hit := mustCollective(t, second, req); hit != miss {
		t.Fatalf("hit %v, miss %v", hit, miss)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after repeat: %+v", s)
	}
	if first.net == nil || second.net != nil {
		t.Fatalf("networks built: miss %v, hit %v; want only the miss's", first.net != nil, second.net != nil)
	}
	// A different request is a different key.
	mustCollective(t, second, testReq(collective.AllGather, 64, 4096))
	if s := c.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after second pattern: %+v", s)
	}
	// A fresh cache (a restarted daemon's) starts empty and compiles again.
	c = NewPlanCache()
	mustCollective(t, cachedPIMnet(t, 64, c), req)
	if s := c.Stats(); s != (CacheStats{Misses: 1, Entries: 1}) {
		t.Fatalf("fresh cache: %+v", s)
	}
	// A request the system cannot run is a miss that stores nothing.
	if _, err := cachedPIMnet(t, 64, c).Collective(testReq(collective.AllReduce, 256, 4096)); err == nil {
		t.Fatal("a 256-node request ran on a 64-DPU backend")
	}
	if s := c.Stats(); s != (CacheStats{Misses: 2, Entries: 1}) {
		t.Fatalf("after a failed compile: %+v", s)
	}
}

// TestPlanViaWarmAllocs: a backend answering a warm point from the plan
// cache allocates nothing — the lookup builds no key on the heap, no
// network and no plan.
func TestPlanViaWarmAllocs(t *testing.T) {
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllToAll} {
		req := testReq(pat, 256, 32<<10)
		p := cachedPIMnet(t, 256, NewPlanCache())
		mustCollective(t, p, req) // fills the cache
		avg := testing.AllocsPerRun(100, func() {
			if _, err := p.Collective(req); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("%v: a warm cache hit allocates %v times per call, want 0", pat, avg)
		}
	}
}

// TestCacheBypassesFaultedBackend: a backend with an armed fault model
// neither reads from nor writes to the shared cache — fault recompilation
// stays outside it — and a healthy backend on the same cache still gets the
// healthy result.
func TestCacheBypassesFaultedBackend(t *testing.T) {
	c := NewPlanCache()
	req := testReq(collective.AllReduce, 64, 4096)
	healthy := mustCollective(t, cachedPIMnet(t, 64, c), req)
	before := c.Stats()

	p := cachedPIMnet(t, 64, c)
	m := &faults.Model{Faults: []faults.Fault{{Class: faults.LinkDegrade, Site: faults.SiteRing, Factor: 0.25}}}
	if err := p.EnableFaults(m, nil); err != nil {
		t.Fatal(err)
	}
	if got := mustCollective(t, p, req); got == healthy {
		t.Fatalf("faulted backend returned the healthy %v", healthy)
	}
	if s := c.Stats(); s != before {
		t.Fatalf("faulted backend touched the cache: %+v, before %+v", s, before)
	}
	if got := mustCollective(t, cachedPIMnet(t, 64, c), req); got != healthy {
		t.Fatalf("healthy backend after a faulted one: %v, want %v", got, healthy)
	}
}

// TestNilCacheReplays: without a cache every request compiles and replays,
// to the result a cached backend stores.
func TestNilCacheReplays(t *testing.T) {
	req := testReq(collective.AllReduce, 64, 4096)
	p := cachedPIMnet(t, 64, nil)
	got := mustCollective(t, p, req)
	if p.net == nil {
		t.Fatal("an uncached backend answered without a network")
	}
	if want := mustCollective(t, cachedPIMnet(t, 64, NewPlanCache()), req); got != want {
		t.Fatalf("uncached %v, cached %v", got, want)
	}
}

// TestKeyForDistinguishesStepOverhead: the same request on systems that
// differ only in the per-step overhead must occupy distinct cache slots —
// the A1 ablation depends on this.
func TestKeyForDistinguishesStepOverhead(t *testing.T) {
	a, b := testSys(t, 64), testSys(t, 64)
	b.Net.StepOverhead = 1000
	req := testReq(collective.AllReduce, 64, 4096)
	if KeyFor(a, req) == KeyFor(b, req) {
		t.Fatal("step overhead not part of the cache key")
	}
	if KeyFor(a, req) != KeyFor(testSys(t, 64), req) {
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
		mkKey := func(bytes int64, nodes, pat int, oh int64) PlanKey {
			sys := config.Default()
			sys.Net.StepOverhead = sim.Time(oh)
			return KeyFor(sys, collective.Request{Pattern: collective.Pattern(pat % 8), Op: collective.Sum,
				BytesPerNode: bytes, ElemSize: 4, Nodes: nodes})
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
		c.Insert(ka, backend.Result{})
		_, ok := c.Lookup(kb)
		if ok != tupleEqual {
			t.Fatalf("cache hit=%v for tuple equality %v", ok, tupleEqual)
		}
		for _, k := range []PlanKey{ka, kb} {
			if got, want := k.Digest(), marshalDigest(t, k); got != want {
				t.Fatalf("Digest = %s, SHA-256 of the reference encoding = %s\nk=%+v", got, want, k)
			}
		}
	})
}

// marshalDigest is the digest PlanKey.Digest defines, computed without it:
// a hex SHA-256 over json.Marshal of the key's reference encoding, whose
// fields and order are those every pinned plan_key was hashed under.
func marshalDigest(t testing.TB, k PlanKey) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Sys            config.System
		Req            collective.Request
		StepOverheadPs int64
	}{k.Sys, k.Req, int64(k.Sys.Net.StepOverhead)})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestPlanKeyDigestMatchesMarshal checks Digest, which encodes each distinct
// system once, against the SHA-256 of the reference encoding over keys in
// the style of FuzzPlanCacheKey, across more distinct systems than the
// encoding memo holds: each DPU count the paper's hierarchy admits, then 100
// systems that differ in one rate. Every system is digested twice, under
// three step overheads, so the second pass reads the memo (or a memo
// cleared since), and the memo stays within its bound.
func TestPlanKeyDigestMatchesMarshal(t *testing.T) {
	var systems []config.System
	for _, dpus := range []int{1, 2, 8, 64, 256, 512, 1024, 2560} {
		sys, err := config.Default().WithDPUs(dpus)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	for i := range 100 {
		sys := config.Default()
		sys.Net.RankBusBW += float64(i) * 1e6
		systems = append(systems, sys)
	}
	reqs := []collective.Request{
		testReq(collective.AllReduce, 64, 32<<10),
		{Pattern: collective.Pattern(7), Op: collective.Min, BytesPerNode: -1, ElemSize: 8, Nodes: 1, Root: 3},
		{},
	}
	for range 2 {
		for _, sys := range systems {
			for i, req := range reqs {
				sys.Net.StepOverhead = sim.Time(i) * -100
				k := KeyFor(sys, req)
				if got, want := k.Digest(), marshalDigest(t, k); got != want {
					t.Fatalf("Digest = %s, SHA-256 of the reference encoding = %s\nk=%+v", got, want, k)
				}
			}
		}
	}
	sysJSON.Lock()
	defer sysJSON.Unlock()
	if n := len(sysJSON.m); n > sysJSONMax {
		t.Fatalf("system encoding memo holds %d entries, bound %d", n, sysJSONMax)
	}
}

// TestPlanKeyDigest: equal keys digest identically; any single-parameter
// change produces a different digest.
func TestPlanKeyDigest(t *testing.T) {
	sys := testSys(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)
	k := KeyFor(sys, req)
	if k.Digest() != KeyFor(testSys(t, 64), req).Digest() {
		t.Fatal("equal keys digest differently")
	}
	guarded := sys
	guarded.Net.StepOverhead = 77
	variants := []PlanKey{
		KeyFor(sys, testReq(collective.AllGather, 64, 4096)),
		KeyFor(sys, testReq(collective.AllReduce, 64, 8192)),
		KeyFor(guarded, req),
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

// TestCompiledStepsSizedExactly: the compiler sizes every phase's step list
// and every step's transfer list exactly before filling it, so a compiled
// plan's bulk carries no spare capacity.
func TestCompiledStepsSizedExactly(t *testing.T) {
	for _, dpus := range []int{1, 8, 64, 256, 2560} {
		n := testNet(t, dpus)
		for pat := collective.Pattern(0); pat < 7; pat++ {
			plan := mustPlan(t, n, testReq(pat, dpus, 32<<10))
			for _, ph := range plan.Phases {
				if len(ph.Steps) != cap(ph.Steps) {
					t.Errorf("%v/%d %s: %d steps, capacity %d", pat, dpus, ph.Name, len(ph.Steps), cap(ph.Steps))
				}
				for si, st := range ph.Steps {
					if len(st.Transfers) != cap(st.Transfers) {
						t.Errorf("%v/%d %s step %d: %d transfers, capacity %d",
							pat, dpus, ph.Name, si, len(st.Transfers), cap(st.Transfers))
					}
				}
			}
		}
	}
}
