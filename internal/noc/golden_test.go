package noc

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pimnet/internal/sim"
)

// update regenerates the NoC golden corpus:
//
//	go test ./internal/noc -run TestNocGolden -update
var update = flag.Bool("update", false, "regenerate testdata/golden/*.json")

// goldenResult pins every observable of a NoC run. Any change to the packet
// simulator that shifts a single picosecond, packet, or queue depth shows up
// as a diff against these files.
type goldenResult struct {
	FinishPs  int64 `json:"finish_ps"`
	Delivered int64 `json:"delivered"`
	MaxQueue  int   `json:"max_queue"`
}

func fromResult(r Result) goldenResult {
	return goldenResult{FinishPs: int64(r.Finish), Delivered: r.PacketsDelivered, MaxQueue: r.MaxQueue}
}

// goldenShape maps the corpus populations onto PIMnet tier shapes. 64 spans
// two ranks (exercises the bus), 256 is the paper's single-channel default,
// 2560 is the full-machine scale point.
func goldenShape(dpus int) Config {
	switch dpus {
	case 64:
		return DefaultConfig(2, 4, 8)
	case 256:
		return DefaultConfig(4, 8, 8)
	case 2560:
		return DefaultConfig(4, 8, 80)
	default:
		panic(fmt.Sprintf("no golden shape for %d DPUs", dpus))
	}
}

// goldenSkew is the corpus compute-finish profile (the Fig. 13 setup).
func goldenSkew(cfg Config) []sim.Time {
	return SkewedFinishTimes(cfg.Nodes(), 100*sim.Microsecond, 20*sim.Microsecond, 42)
}

type goldenCase struct {
	name string
	run  func() (goldenResult, error)
}

// goldenCases enumerates the corpus. Collective ring/shift scripts are
// O(nodes^2) messages, so they pin 64 and 256; the bounded-step scripted
// patterns extend the lock to 2560 nodes.
func goldenCases() []goldenCase {
	var cases []goldenCase

	collectives := []struct {
		name string
		run  func(Config, Mode, []sim.Time, int64) (Result, error)
	}{
		{"allreduce", SimulateAllReduce},
		{"alltoall", SimulateAllToAll},
	}
	modes := []struct {
		name string
		mode Mode
	}{
		{"credit", CreditBased},
		{"static", StaticScheduled},
	}
	for _, c := range collectives {
		for _, m := range modes {
			for _, dpus := range []int{64, 256} {
				c, m, dpus := c, m, dpus
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s_%s_%d", c.name, m.name, dpus),
					run: func() (goldenResult, error) {
						cfg := goldenShape(dpus)
						res, err := c.run(cfg, m.mode, goldenSkew(cfg), 32<<10)
						return fromResult(res), err
					},
				})
			}
		}
	}

	cases = append(cases, patternGoldenCases()...)
	return cases
}

// TestNocGolden locks the packet simulator to the recorded corpus: the flat
// index-based core must produce bit-identical results to the original
// pointer-and-closure implementation for every case. A file in the corpus
// that no case writes fails it too, so a deleted case cannot leave its
// golden behind.
func TestNocGolden(t *testing.T) {
	cases := goldenCases()
	written := make(map[string]bool, len(cases))
	for _, c := range cases {
		written[c.name+".json"] = true
	}
	orphans, err := filepath.Glob(filepath.Join("testdata", "golden", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range orphans {
		if !written[filepath.Base(path)] {
			t.Errorf("%s is written by no golden case: delete it", path)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", c.name+".json")
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
				t.Errorf("result drifted from %s (rerun with -update if intended):\ngot:  %+v\nwant: %+v",
					path, got, want)
			}
		})
	}
}
