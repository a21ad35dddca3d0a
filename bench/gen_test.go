package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

func bodies(items []item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.path + " " + string(it.body)
		if it.twin {
			out[i] += " twin"
		}
	}
	return out
}

// TestStreamsDeterministic: the same seed gives the same request bytes, and
// another seed gives another stream.
func TestStreamsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) []item{
		"collective": func(s int64) []item { return collectiveStream(s, fullSize.collective) },
		"workload":   func(s int64) []item { return workloadPass(s, false) },
		"restart":    func(s int64) []item { return restartStream(s, fullSize.restart) },
	}
	for name, gen := range gens {
		a, b, c := bodies(gen(7)), bodies(gen(7)), bodies(gen(8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// TestCollectiveStreamShape checks the hot-set/pool mix and that every
// drawn point is one the daemon accepts.
func TestCollectiveStreamShape(t *testing.T) {
	sh := fullSize.collective
	items := collectiveStream(3, sh)
	if len(items) != sh.Requests {
		t.Fatalf("%d requests, want %d", len(items), sh.Requests)
	}
	count := map[collectivePoint]int{}
	for _, it := range items {
		p := *it.point
		count[p]++
		if p.Bytes < 1<<10 || p.Bytes > 1<<20 || p.Bytes%4 != 0 {
			t.Fatalf("payload %d outside [1KiB, 1MiB] or not whole elements", p.Bytes)
		}
		if p.Backend == "ndpbridge" && (p.Pattern == "allreduce" || p.Pattern == "reducescatter") {
			t.Fatalf("drew a reduction on ndpbridge: %+v", p)
		}
	}
	// The 32 hot points carry about 70% of the stream.
	hot := hotShare(count, sh.Hot)
	if hot < 0.67 || hot > 0.73 {
		t.Errorf("hot set carries %.3f of requests, want about %.2f", hot, sh.HotShare)
	}
	if len(count) > sh.Hot+sh.Pool {
		t.Errorf("%d distinct points, want at most %d", len(count), sh.Hot+sh.Pool)
	}
}

// hotShare is the share of requests that go to the k most requested points.
func hotShare(count map[collectivePoint]int, k int) float64 {
	var ns []int
	total := 0
	for _, n := range count {
		ns = append(ns, n)
		total += n
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ns)))
	top := 0
	for _, n := range ns[:k] {
		top += n
	}
	return float64(top) / float64(total)
}

// TestWorkloadPass: a pass names each of the nine workloads once with each
// of two generator seeds, at full size.
func TestWorkloadPass(t *testing.T) {
	pass := workloadPass(5, false)
	if len(pass) != 2*len(workloadNames) {
		t.Fatalf("%d requests, want %d", len(pass), 2*len(workloadNames))
	}
	perSeed := map[int64]map[string]bool{}
	for _, it := range pass {
		var r workloadRequest
		if err := json.Unmarshal(it.body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Scaled || r.Seed == 0 {
			t.Errorf("request %s: want full size and a non-default seed", it.body)
		}
		if perSeed[r.Seed] == nil {
			perSeed[r.Seed] = map[string]bool{}
		}
		perSeed[r.Seed][r.Workload] = true
	}
	if len(perSeed) != 2 {
		t.Fatalf("%d generator seeds, want 2", len(perSeed))
	}
	for s, names := range perSeed {
		if len(names) != len(workloadNames) {
			t.Errorf("seed %d covers %d workloads, want %d", s, len(names), len(workloadNames))
		}
	}
}

// TestRestartStreamMix: the serve-restart stream has the mix's exact
// counts, in a seeded order.
func TestRestartStreamMix(t *testing.T) {
	items := restartStream(11, fullSize.restart)
	got := map[string]int{}
	for _, it := range items {
		k := it.kind
		if it.twin {
			k = "twin"
		}
		got[k]++
	}
	for _, m := range restartMix {
		if want := int(m.share * float64(fullSize.restart.Requests)); got[m.kind] != want {
			t.Errorf("%s: %d requests, want %d", m.kind, got[m.kind], want)
		}
	}
}

// TestDrawnPointsSupported runs every backend x pattern the generators can
// draw through the library at the smallest and largest population, so no
// generated request is one the daemon must refuse.
func TestDrawnPointsSupported(t *testing.T) {
	for _, be := range backendNames {
		pats := patternNames
		if be == "ndpbridge" {
			pats = forwardPatterns
		}
		for _, dpus := range []int{64, 2560} {
			for _, p := range pats {
				pt := collectivePoint{Backend: be, Pattern: p, Bytes: 1 << 10, DPUs: dpus}
				if _, err := libraryCollective(pt); err != nil {
					t.Errorf("%+v: %v", pt, err)
				}
			}
		}
	}
}

// TestSamplePoints: the library-check sample is distinct, bounded and
// seeded.
func TestSamplePoints(t *testing.T) {
	items := collectiveStream(2, fullSize.collective)
	a, b := samplePoints(2, items, 32), samplePoints(2, items, 32)
	if len(a) != 32 || !reflect.DeepEqual(a, b) {
		t.Fatalf("sample of %d points, deterministic %v", len(a), reflect.DeepEqual(a, b))
	}
	seen := map[collectivePoint]bool{}
	for _, p := range a {
		if seen[p] {
			t.Fatalf("point %+v sampled twice", p)
		}
		seen[p] = true
	}
}

func TestStripStats(t *testing.T) {
	a := []byte(`{"backend":"pimnet","points":[1],"stats":{"wall_ms":3.5}}`)
	b := []byte(`{"backend":"pimnet","points":[1],"stats":{"wall_ms":9.1}}`)
	if !bytes.Equal(stripStats(a), stripStats(b)) {
		t.Errorf("stats not stripped: %s vs %s", stripStats(a), stripStats(b))
	}
	plain := []byte(`{"time_ps":12}`)
	if !bytes.Equal(stripStats(plain), plain) {
		t.Error("a body without stats changed")
	}
}
