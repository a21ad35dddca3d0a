package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot(".", "..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSpecValid checks BENCHMARK.json against the benchmark's structural
// limits.
func TestSpecValid(t *testing.T) {
	sp, err := loadSpec(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sp.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command %q, want bash bench/run.sh", got)
	}
	if !reflect.DeepEqual(sp.Paths, []string{"bench"}) {
		t.Errorf("paths %q, want [bench]", sp.Paths)
	}
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			for _, o := range sp.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
}

// TestSpecRejects covers the validator's limits.
func TestSpecRejects(t *testing.T) {
	sp, err := loadSpec(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(s *spec){
		"one workload":   func(s *spec) { s.Workloads = s.Workloads[:1] },
		"nine workloads": func(s *spec) { s.Workloads = append(s.Workloads, make([]specLoad, 5)...) },
		"bad name":       func(s *spec) { s.Workloads[0].Name = "serve collective" },
		"duplicate":      func(s *spec) { s.PerLayer[0].Name = s.EndToEnd[0].Name },
		"loose bound":    func(s *spec) { s.EndToEnd[1].Bound = 0.3 },
		"no setup":       func(s *spec) { s.EndToEnd = s.EndToEnd[1:] },
		"layer bound":    func(s *spec) { s.PerLayer[0].Bound = 0.1 },
		"direction":      func(s *spec) { s.PerLayer[0].Better = "up" },
		"unit":           func(s *spec) { s.PerLayer[0].Unit = "micro seconds" },
		"17 metrics": func(s *spec) {
			for i := len(s.EndToEnd); i < 17; i++ {
				s.EndToEnd = append(s.EndToEnd, specMetric{Name: fmt.Sprintf("m%d", i), Unit: "s", Better: "lower", Bound: 0.1})
			}
		},
	}
	for name, mutate := range cases {
		data, _ := json.Marshal(sp)
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		mutate(&s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness in step: the
// same workloads, and exactly the metrics each kind of run emits, with the
// same units and directions.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := loadSpec(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadRunners {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, harness runs %v", names, want)
	}
	check := func(kind string, listed []specMetric, defs []metricDef) {
		var got, exp []string
		for _, m := range listed {
			got = append(got, fmt.Sprintf("%s %s %s", m.Name, m.Unit, m.Better))
		}
		var js []string
		for _, d := range defs {
			exp = append(exp, fmt.Sprintf("%s %s %s", d.name, d.unit, d.better))
			js = append(js, fmt.Sprintf(`{"name": %q, "unit": %q, "better": %q}`, d.name, d.unit, d.better))
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s metrics differ from the harness; the harness emits:\n%s", kind, strings.Join(js, ",\n"))
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
}

// TestRunScriptTracked checks that the command's script is where
// BENCHMARK.json says and that the committed regeneration digests exist.
func TestRunScriptTracked(t *testing.T) {
	root := repoRoot(t)
	for _, f := range []string{"bench/run.sh", "bench/testdata/regen.sha256", "bench/testdata/regen_smoke.sha256"} {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			t.Error(err)
		}
	}
}
