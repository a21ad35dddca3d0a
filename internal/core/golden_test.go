package core

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
	"pimnet/internal/metrics"
)

// update regenerates the golden trace corpus:
//
//	go test ./internal/core -run TestGoldenTraces -update
var update = flag.Bool("update", false, "regenerate testdata/golden/*.json")

// goldenPhase is one compiled phase's identity and measured duration.
type goldenPhase struct {
	Name       string `json:"name"`
	Tier       string `json:"tier"`
	Steps      int    `json:"steps"`
	Pipelined  bool   `json:"pipelined,omitempty"`
	DurationPs int64  `json:"duration_ps"`
}

// goldenTrace pins one (pattern, population) cell of the corpus: the plan's
// content digest plus the phase-by-phase latency profile of its execution.
// Any change to the compiler or the executor that shifts a single transfer
// or picosecond shows up as a diff against these files.
type goldenTrace struct {
	Pattern      string           `json:"pattern"`
	DPUs         int              `json:"dpus"`
	BytesPerNode int64            `json:"bytes_per_node"`
	ElemSize     int              `json:"elem_size"`
	PlanDigest   string           `json:"plan_digest"`
	MemBytes     int64            `json:"mem_bytes,omitempty"`
	Phases       []goldenPhase    `json:"phases"`
	TotalPs      int64            `json:"total_ps"`
	BreakdownPs  map[string]int64 `json:"breakdown_ps"`
}

// goldenMatrix is the corpus: the four bandwidth-bound Table V collectives
// across one rank (64), the default hierarchy (256), and a multi-rank scale
// point (2560 DPUs = 40 ranks).
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

// traceFor compiles and executes one corpus cell and returns its trace.
func traceFor(t *testing.T, pat collective.Pattern, dpus int) goldenTrace {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatalf("WithDPUs(%d): %v", dpus, err)
	}
	net, err := NewNetwork(sys)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	req := collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus}
	plan, err := PlanFor(net, req)
	if err != nil {
		t.Fatalf("PlanFor(%v, %d): %v", pat, dpus, err)
	}
	digest := plan.Digest()
	res, durs, aborted, err := net.executePhases(plan, execOptions{})
	if err != nil {
		t.Fatalf("executePhases: %v", err)
	}
	if aborted != -1 {
		t.Fatalf("healthy execution aborted at phase %d", aborted)
	}
	tr := goldenTrace{
		Pattern:      pat.String(),
		DPUs:         dpus,
		BytesPerNode: req.BytesPerNode,
		ElemSize:     req.ElemSize,
		PlanDigest:   digest,
		MemBytes:     plan.MemBytes,
		TotalPs:      int64(res.Time),
		BreakdownPs:  map[string]int64{},
	}
	for i, ph := range plan.Phases {
		tr.Phases = append(tr.Phases, goldenPhase{
			Name:       ph.Name,
			Tier:       ph.Tier.String(),
			Steps:      len(ph.Steps),
			Pipelined:  ph.Pipelined,
			DurationPs: int64(durs[i]),
		})
	}
	for _, c := range metrics.Components() {
		if d := res.Breakdown.Get(c); d != 0 {
			tr.BreakdownPs[c.String()] = int64(d)
		}
	}
	return tr
}

// TestGoldenTraces locks the compiler and executor to the recorded corpus:
// same plan bytes (digest) and same phase-by-phase timing for every cell.
func TestGoldenTraces(t *testing.T) {
	for _, pat := range goldenMatrix.patterns {
		for _, dpus := range goldenMatrix.dpus {
			pat, dpus := pat, dpus
			t.Run(fmt.Sprintf("%v/%d", pat, dpus), func(t *testing.T) {
				got := traceFor(t, pat, dpus)
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
				var want goldenTrace
				if err := json.Unmarshal(blob, &want); err != nil {
					t.Fatalf("corrupt golden file %s: %v", path, err)
				}
				if got.PlanDigest != want.PlanDigest {
					t.Errorf("plan digest drifted:\n got %s\nwant %s", got.PlanDigest, want.PlanDigest)
				}
				if !reflect.DeepEqual(got, want) {
					gotJSON, _ := json.MarshalIndent(got, "", "  ")
					t.Errorf("trace drifted from %s (rerun with -update if intended):\ngot:\n%s", path, gotJSON)
				}
			})
		}
	}
}

// TestGoldenDigestStability pins digest computation itself: the digest must
// be identical across two independently constructed networks (that is what
// makes it usable as a cross-run plan identity), and distinct cells must
// never share a digest.
func TestGoldenDigestStability(t *testing.T) {
	seen := map[string]string{}
	for _, pat := range goldenMatrix.patterns {
		for _, dpus := range goldenMatrix.dpus {
			var digests []string
			for i := 0; i < 2; i++ {
				sys, err := config.Default().WithDPUs(dpus)
				if err != nil {
					t.Fatal(err)
				}
				net, err := NewNetwork(sys)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := PlanFor(net, collective.Request{Pattern: pat, Op: collective.Sum,
					BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus})
				if err != nil {
					t.Fatal(err)
				}
				digests = append(digests, plan.Digest())
			}
			if digests[0] != digests[1] {
				t.Errorf("%v/%d: digest not reproducible: %s vs %s", pat, dpus, digests[0], digests[1])
			}
			cell := fmt.Sprintf("%v/%d", pat, dpus)
			if prev, dup := seen[digests[0]]; dup {
				t.Errorf("digest collision between %s and %s", prev, cell)
			}
			seen[digests[0]] = cell
		}
	}
}
