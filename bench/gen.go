package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
)

// Seeded request generators. Every workload draws its inputs from its own
// PCG stream keyed by the run seed, so the same seed always yields the same
// request bytes and the daemon receives only the generated payloads.
//
// What a request costs the daemon depends mostly on its class (backend,
// pattern, DPU population) and hardly on its payload. So that runs with
// different seeds measure the same amount of work, the classes of the
// collective points come from a fixed stream; the seed draws the payloads,
// the pools, and the order and mix of the requests.

// item is one request of a workload stream.
type item struct {
	kind string // "collective", "sweep", "workload" or "noc"
	path string
	body []byte
	// point is set on collective /v1/simulate items; the post-run library
	// check recomputes a sample of them.
	point *collectivePoint
	// twin items are sent by every client at the same moment, so the
	// daemon's coalescer sees concurrent identical requests.
	twin bool
}

// collectivePoint is one /v1/simulate collective request.
type collectivePoint struct {
	Backend string `json:"backend"`
	Pattern string `json:"pattern"`
	Bytes   int64  `json:"bytes_per_node"`
	DPUs    int    `json:"dpus"`
}

var (
	backendNames = []string{"baseline", "ideal", "ndpbridge", "dimmlink", "pimnet", "cxlpim"}
	patternNames = []string{"allreduce", "reducescatter", "allgather", "alltoall", "broadcast"}
	// NDPBridge forwards only: the library answers its reduction patterns
	// with an error (422 from the daemon), so they are never drawn.
	forwardPatterns = []string{"allgather", "alltoall", "broadcast"}
	// 256 appears twice: the paper's single-channel shape is drawn half
	// the time.
	dpuChoices = []int{64, 256, 256, 2560}
	// workloadNames are the names /v1/simulate accepts for workload runs.
	workloadNames = []string{"BFS", "CC", "GEMV", "MLP", "SpMV", "EMB", "NTT", "Join", "PIMfused"}
)

// Stream identifiers keep the workloads' random streams independent.
const (
	streamCollective = 0xc011ec7
	streamWorkload   = 0x3011c0ad
	streamRestart    = 0x2e57a27
	streamSample     = 0x5a3b1e
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// draws pairs the fixed class stream with the seeded value stream of one
// workload.
type draws struct {
	class, value *rand.Rand
}

func newDraws(seed int64, stream uint64) draws {
	return draws{class: newRand(0, stream), value: newRand(seed, stream)}
}

// logUniform draws a payload log-uniformly from [lo, hi], rounded down to a
// whole number of 4-byte elements.
func logUniform(r *rand.Rand, lo, hi int64) int64 {
	x := math.Exp(math.Log(float64(lo)) + r.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	b := int64(x) &^ 3
	if b < lo {
		b = lo
	}
	if b > hi {
		b = hi
	}
	return b
}

// drawPattern picks a pattern the backend supports.
func drawPattern(r *rand.Rand, backend string) string {
	if backend == "ndpbridge" {
		return forwardPatterns[r.IntN(len(forwardPatterns))]
	}
	return patternNames[r.IntN(len(patternNames))]
}

func drawBackend(r *rand.Rand) string { return backendNames[r.IntN(len(backendNames))] }

// drawPoint draws a point's class from d.class and its payload from
// d.value.
func drawPoint(d draws) collectivePoint {
	be := drawBackend(d.class)
	return collectivePoint{
		Backend: be,
		Pattern: drawPattern(d.class, be),
		DPUs:    dpuChoices[d.class.IntN(len(dpuChoices))],
		Bytes:   logUniform(d.value, 1<<10, 1<<20),
	}
}

// distinctPoints draws n points that are distinct from each other and from
// the points in taken, adding them to taken. A duplicate keeps its class
// and draws another payload.
func distinctPoints(d draws, n int, taken map[collectivePoint]bool) []collectivePoint {
	out := make([]collectivePoint, 0, n)
	for len(out) < n {
		p := drawPoint(d)
		for taken[p] {
			p.Bytes = logUniform(d.value, 1<<10, 1<<20)
		}
		taken[p] = true
		out = append(out, p)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding request: %v", err))
	}
	return b
}

func collectiveItem(p collectivePoint) item {
	p2 := p
	return item{kind: "collective", path: "/v1/simulate", body: mustJSON(p), point: &p2}
}

// collectiveShape sizes the serve-collective stream.
type collectiveShape struct {
	Requests int     // stream length
	Hot      int     // points in the hot set
	Pool     int     // points in the cold pool
	HotShare float64 // share of requests drawn from the hot set
}

// collectiveStream is the serve-collective request stream: HotShare of the
// requests repeat a small hot set (warm plan bind and execute), the rest
// come from a large pool, so the first visit to each pool point compiles a
// plan and grows the daemon's plan cache.
func collectiveStream(seed int64, sh collectiveShape) []item {
	d := newDraws(seed, streamCollective)
	r := d.value
	taken := map[collectivePoint]bool{}
	hot := distinctPoints(d, sh.Hot, taken)
	pool := distinctPoints(d, sh.Pool, taken)
	items := make([]item, sh.Requests)
	for i := range items {
		if r.Float64() < sh.HotShare {
			items[i] = collectiveItem(hot[r.IntN(len(hot))])
		} else {
			items[i] = collectiveItem(pool[r.IntN(len(pool))])
		}
	}
	return items
}

// workloadRequest is one /v1/simulate workload request.
type workloadRequest struct {
	Workload string `json:"workload"`
	Scaled   bool   `json:"scaled"`
	Seed     int64  `json:"seed"`
}

func workloadItem(name string, scaled bool, seed int64) item {
	return item{kind: "workload", path: "/v1/simulate",
		body: mustJSON(workloadRequest{Workload: name, Scaled: scaled, Seed: seed})}
}

// workloadSeeds derives the two input-generator seeds the workload streams
// use (distinct, and never 0, which the daemon reads as "default").
func workloadSeeds(r *rand.Rand) [2]int64 {
	a := 1 + r.Int64N(1<<20)
	b := a + 1 + r.Int64N(1<<20)
	return [2]int64{a, b}
}

// workloadPass is one pass of the serve-workload stream: the 9 workload
// names with each of two seeded generator seeds, 18 requests in a seeded
// order.
func workloadPass(seed int64, scaled bool) []item {
	r := newRand(seed, streamWorkload)
	seeds := workloadSeeds(r)
	items := make([]item, 0, 2*len(workloadNames))
	for _, s := range seeds {
		for _, name := range workloadNames {
			items = append(items, workloadItem(name, scaled, s))
		}
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// sweepRequest is one /v1/sweep grid.
type sweepRequest struct {
	Backend string  `json:"backend"`
	Pattern string  `json:"pattern"`
	DPUs    []int   `json:"dpus"`
	Bytes   []int64 `json:"bytes_per_node"`
}

// nocRequest is one /v1/noc/sweep grid (every traffic pattern under both
// flow-control modes) on the 256-node (4x8x8) channel.
type nocRequest struct {
	Ranks int   `json:"ranks"`
	Chips int   `json:"chips"`
	Banks int   `json:"banks"`
	Bytes int64 `json:"bytes_per_node"`
	Seed  int64 `json:"seed"`
}

// restartShape sizes the serve-restart stream and its request pools.
type restartShape struct {
	Requests        int
	CollectivePool  int
	SweepPool       int
	NocPool         int
	WorkloadsScaled bool
}

// restartMix is the serve-restart stream's composition: 55% collective
// simulates, 20% 3x3 sweeps, 10% scaled workloads, 5% 256-node NoC sweeps
// and 10% twins (a collective or workload simulate sent by every client at
// once). The counts are exact; the seed shuffles them.
var restartMix = []struct {
	kind  string
	share float64
}{{"collective", 0.55}, {"sweep", 0.20}, {"workload", 0.10}, {"noc", 0.05}, {"twin", 0.10}}

// restartStream is the serve-restart request stream. Requests are drawn
// from small pools, so the stream repeats itself: the fill phase both
// writes to the store and reads back its own results, and the replay of
// the same stream reads everything but the NoC sweeps (which the daemon
// does not store) from the store.
func restartStream(seed int64, sh restartShape) []item {
	d := newDraws(seed, streamRestart)
	r := d.value
	colls := distinctPoints(d, sh.CollectivePool, map[collectivePoint]bool{})
	sweeps := make([]item, sh.SweepPool)
	for i := range sweeps {
		be := drawBackend(d.class)
		req := sweepRequest{Backend: be, Pattern: drawPattern(d.class, be), DPUs: []int{64, 256, 2560}}
		for j := 0; j < 3; j++ {
			req.Bytes = append(req.Bytes, logUniform(r, 1<<10, 1<<20))
		}
		sweeps[i] = item{kind: "sweep", path: "/v1/sweep", body: mustJSON(req)}
	}
	seeds := workloadSeeds(r)
	var works []item
	for _, name := range workloadNames {
		for _, s := range seeds {
			works = append(works, workloadItem(name, sh.WorkloadsScaled, s))
		}
	}
	nocs := make([]item, sh.NocPool)
	for i := range nocs {
		req := nocRequest{Ranks: 4, Chips: 8, Banks: 8, Bytes: 16 << 10, Seed: 1 + r.Int64N(1<<20)}
		nocs[i] = item{kind: "noc", path: "/v1/noc/sweep", body: mustJSON(req)}
	}

	var kinds []string
	for _, m := range restartMix {
		for i := 0; i < int(math.Round(m.share*float64(sh.Requests))); i++ {
			kinds = append(kinds, m.kind)
		}
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	items := make([]item, len(kinds))
	twins := 0
	for i, k := range kinds {
		switch k {
		case "collective":
			items[i] = collectiveItem(colls[r.IntN(len(colls))])
		case "sweep":
			items[i] = sweeps[r.IntN(len(sweeps))]
		case "workload":
			items[i] = works[r.IntN(len(works))]
		case "noc":
			items[i] = nocs[r.IntN(len(nocs))]
		case "twin":
			// Twins alternate between a collective and a workload.
			if twins%2 == 0 {
				items[i] = collectiveItem(colls[r.IntN(len(colls))])
			} else {
				items[i] = works[r.IntN(len(works))]
			}
			items[i].twin = true
			twins++
		}
	}
	return items
}

// samplePoints picks up to n distinct collective points of the stream for
// the post-run library check, in a seeded order.
func samplePoints(seed int64, items []item, n int) []collectivePoint {
	seen := map[collectivePoint]bool{}
	var all []collectivePoint
	for _, it := range items {
		if it.point != nil && !seen[*it.point] {
			seen[*it.point] = true
			all = append(all, *it.point)
		}
	}
	r := newRand(seed, streamSample)
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > n {
		all = all[:n]
	}
	return all
}
