package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lat := specMetric{Name: "batch_s", Unit: "s", Better: "lower", Bound: 0.10}
	tput := specMetric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"faster wins every pair", lat, steady, scale(steady, 0.8), vBetter},
		{"slower beyond the bound", lat, steady, scale(steady, 1.2), vWorse},
		{"within the bound", lat, steady, scale(steady, 1.03), vSame},
		{"higher is better", tput, steady, scale(steady, 1.2), vBetter},
		{"throughput drop", tput, steady, scale(steady, 0.8), vWorse},
		{"too few pairs to claim", lat, steady[:5], scale(steady[:5], 0.8), vSame},
		{"parent spread wider than the bound", lat,
			[]float64{80, 120, 90, 130, 70, 110, 100, 125, 75, 95}, scale(steady, 1.05), vUnresolved},
		{"wide spread but every change run better", lat,
			[]float64{80, 120, 90, 130, 70, 110, 100, 125, 75, 95}, scale(steady, 0.5), vBetter},
	}
	for _, c := range cases {
		if got := judge("w", c.m, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	layer := judge("w", specMetric{Name: "core.bind_us.AllToAll.2560", Unit: "us", Better: "lower"}, steady, steady)
	if layer.verdict != "" || layer.pairs != 10 {
		t.Errorf("per-layer metric: verdict %q pairs %d, want no verdict and 10 pairs", layer.verdict, layer.pairs)
	}
}

// TestCompareMain runs the subcommand end to end on two record files.
func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			v := (100 + float64(i%3)) * scale
			rec := record{Workload: "regen", Seed: int64(i + 1), Result: &result{Correct: true, Attempted: 3,
				Metrics: map[string]metricValue{"batch_s": {Value: v, Unit: "s"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 1), write("b.jsonl", 1.5)
	var out bytes.Buffer
	if code := compareMain([]string{a, b}, &out); code != 1 {
		t.Errorf("exit %d with a 50%% regression, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "1.500 (of 101 s)") {
		t.Errorf("report lacks the verdict or the ratio with its base:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{a, a}, &out); code != 0 {
		t.Errorf("exit %d comparing a file with itself\n%s", code, out.String())
	}
	if _, err := os.Stat(a); err != nil {
		t.Fatal(err)
	}
}
