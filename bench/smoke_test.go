package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// lastLines returns the last n lines of s.
func lastLines(s string, n int) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) < n {
		return lines
	}
	return lines[len(lines)-n:]
}

func decodeResult(t *testing.T, line string) result {
	t.Helper()
	var r result
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, line)
	}
	return r
}

func checkMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

// TestSmoke runs every workload end to end at smoke size, then one traced
// run, through the same entry point as the benchmark: it builds the
// programs under test, drives real daemons and checks every output.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	dir := t.TempDir()
	results := filepath.Join(dir, "results.jsonl")
	start := time.Now()

	var out bytes.Buffer
	args := []string{"-workload", "all", "-smoke", "-seed", "3", "-seconds", "1", "-out", results}
	if code := benchMain(args, &out); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	for _, line := range lastLines(out.String(), len(workloadRunners)) {
		checkMetrics(t, decodeResult(t, line), endToEnd)
	}
	recs, err := readRecords(results)
	if err != nil || len(recs) != len(workloadRunners) {
		t.Fatalf("%d records (%v), want one per workload", len(recs), err)
	}

	out.Reset()
	traced := filepath.Join(dir, "traced.jsonl")
	args = []string{"-workload", "serve-restart", "-smoke", "-seed", "3", "-trace", "1", "-out", traced}
	if code := benchMain(args, &out); code != 0 {
		t.Fatalf("traced run: exit %d\n%s", code, out.String())
	}
	checkMetrics(t, decodeResult(t, lastLines(out.String(), 1)[0]), perLayer)
	recs, err = readRecords(traced)
	if err != nil || len(recs) != 1 || recs[0].Spans == "" {
		t.Fatalf("traced run records %+v (%v), want one naming its span file", recs, err)
	}
	data, err := os.ReadFile(recs[0].Spans)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(recs[0].Spans)
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("span file: %d events, %v", len(trace.TraceEvents), err)
	}
	t.Logf("smoke pass took %v", time.Since(start).Round(time.Millisecond))
}

// TestFindRoot: the harness finds the checkout from bench/, and refuses a
// directory without the simulator's sources.
func TestFindRoot(t *testing.T) {
	if _, err := findRoot(".", ".."); err != nil {
		t.Fatal(err)
	}
	if root, err := findRoot(t.TempDir()); err == nil {
		t.Fatalf("found a checkout at %s in an empty directory", root)
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "serve-collective", "--seed", "4", "--seconds", "24", "--trace", "1"})
	if err != nil || o.workload != "serve-collective" || o.seed != 4 || o.seconds != 24 || o.trace != 1 {
		t.Fatalf("parsed %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"-workload", "nope"},
		{"-workload", "regen", "-trace", "2"},
		{"-workload", "regen", "extra"},
		{"-workload", "regen", "-seconds", "0"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
