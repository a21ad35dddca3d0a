package cxlpim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/metrics"
)

// update regenerates the golden corpus:
//
//	go test ./internal/cxlpim -run TestGoldenResults -update
var update = flag.Bool("update", false, "regenerate testdata/golden/*.json")

// goldenResult pins one (pattern, population) cell: the end-to-end latency
// and breakdown of the hierarchical schedule, plus the content digests of
// the compiled intra-device plans (the cacheable half — these are the keys
// that flow through the plan cache and the content-addressed store).
type goldenResult struct {
	Pattern      string           `json:"pattern"`
	DPUs         int              `json:"dpus"`
	BytesPerNode int64            `json:"bytes_per_node"`
	ElemSize     int              `json:"elem_size"`
	Devices      int              `json:"devices"`
	PerDevice    int              `json:"per_device"`
	TimePs       int64            `json:"time_ps"`
	BreakdownPs  map[string]int64 `json:"breakdown_ps"`
	IntraDigests []string         `json:"intra_digests"`
}

// goldenMatrix mirrors the core corpus: the four bandwidth-bound
// collectives at one-rank, default, and multi-rank scale.
var goldenMatrix = struct {
	patterns []collective.Pattern
	dpus     []int
}{
	patterns: []collective.Pattern{collective.AllReduce, collective.AllGather,
		collective.ReduceScatter, collective.AllToAll},
	dpus: []int{64, 256, 2560},
}

func goldenFile(pat collective.Pattern, dpus int) string {
	name := strings.ToLower(strings.ReplaceAll(pat.String(), "-", ""))
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%d.json", name, dpus))
}

// resultFor runs one corpus cell and captures its golden record.
func resultFor(t *testing.T, pat collective.Pattern, dpus int) goldenResult {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatalf("WithDPUs(%d): %v", dpus, err)
	}
	c := mustNew(t, sys)
	r := collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus}
	res, err := c.Collective(r)
	if err != nil {
		t.Fatalf("Collective(%v, %d): %v", pat, dpus, err)
	}
	out := goldenResult{
		Pattern:      pat.String(),
		DPUs:         dpus,
		BytesPerNode: r.BytesPerNode,
		ElemSize:     r.ElemSize,
		Devices:      c.devices,
		PerDevice:    c.perDev,
		TimePs:       int64(res.Time),
		BreakdownPs:  map[string]int64{},
	}
	for _, comp := range metrics.Components() {
		if d := res.Breakdown.Get(comp); d != 0 {
			out.BreakdownPs[comp.String()] = int64(d)
		}
	}
	intra, err := c.intraRequests(r)
	if err != nil {
		t.Fatalf("intraRequests: %v", err)
	}
	devSys, err := c.sys.WithDPUs(c.perDev)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := core.NewNetwork(devSys)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range intra {
		plan, err := core.PlanFor(dev, sub)
		if err != nil {
			t.Fatalf("PlanFor(%+v): %v", sub, err)
		}
		out.IntraDigests = append(out.IntraDigests, plan.Digest())
	}
	return out
}

// TestGoldenResults locks the CXL-PIM model to the recorded corpus: same
// latency, same breakdown, and the same compiled intra-device plan digests
// for every cell. Any change to the decomposition, the fabric timing, or
// the underlying compiler/executor shows up as a diff against these files.
func TestGoldenResults(t *testing.T) {
	for _, pat := range goldenMatrix.patterns {
		for _, dpus := range goldenMatrix.dpus {
			pat, dpus := pat, dpus
			t.Run(fmt.Sprintf("%v/%d", pat, dpus), func(t *testing.T) {
				got := resultFor(t, pat, dpus)
				path := goldenFile(pat, dpus)
				if *update {
					blob, err := json.MarshalIndent(got, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to generate): %v", err)
				}
				var want goldenResult
				if err := json.Unmarshal(blob, &want); err != nil {
					t.Fatalf("corrupt golden file %s: %v", path, err)
				}
				if !reflect.DeepEqual(got, want) {
					gotJSON, _ := json.MarshalIndent(got, "", "  ")
					t.Errorf("result drifted from %s (rerun with -update if intended):\ngot:\n%s", path, gotJSON)
				}
			})
		}
	}
}
