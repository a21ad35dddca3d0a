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

// goldenResult pins every observable of a NoC run. Collective cases fill the
// Result fields; open-loop traffic cases additionally pin the latency
// statistics. Any change to the packet simulator that shifts a single
// picosecond, packet, or queue depth shows up as a diff against these files.
type goldenResult struct {
	FinishPs  int64 `json:"finish_ps"`
	Delivered int64 `json:"delivered"`
	MaxQueue  int   `json:"max_queue"`

	Injected    int64   `json:"injected,omitempty"`
	OfferedBps  float64 `json:"offered_bps,omitempty"`
	AcceptedBps float64 `json:"accepted_bps,omitempty"`
	MeanPs      int64   `json:"mean_ps,omitempty"`
	P99Ps       int64   `json:"p99_ps,omitempty"`
	MaxPs       int64   `json:"max_ps,omitempty"`
}

func fromResult(r Result) goldenResult {
	return goldenResult{FinishPs: int64(r.Finish), Delivered: r.PacketsDelivered, MaxQueue: r.MaxQueue}
}

func fromTraffic(r TrafficResult) goldenResult {
	g := fromResult(r.Result)
	g.Injected = r.Injected
	g.OfferedBps = r.OfferedBps
	g.AcceptedBps = r.AcceptedBps
	g.MeanPs = int64(r.MeanLatency)
	g.P99Ps = int64(r.P99Latency)
	g.MaxPs = int64(r.MaxLatency)
	return g
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
// O(nodes^2) messages, so they pin 64 and 256; the bounded-step adversarial
// patterns and the open-loop traffic generator (packet count set by
// rate x duration, not population) extend the lock to 2560 nodes.
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

	for _, dpus := range []int{64, 256, 2560} {
		dpus := dpus
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("traffic_uniform_%d", dpus),
			run: func() (goldenResult, error) {
				res, err := SimulateTraffic(goldenShape(dpus), TrafficSpec{Pattern: Uniform,
					PerNodeBps: 10e6, Duration: sim.Millisecond, Seed: 7})
				return fromTraffic(res), err
			},
		})
	}

	cases = append(cases, patternGoldenCases()...)
	return cases
}

// TestNocGolden locks the packet simulator to the recorded corpus: the flat
// index-based core must produce bit-identical results to the original
// pointer-and-closure implementation for every case.
func TestNocGolden(t *testing.T) {
	for _, c := range goldenCases() {
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
