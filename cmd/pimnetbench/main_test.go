package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	// Quick experiments only; the workload-based ones run in scaled mode.
	for _, fig := range []string{"2", "4", "13", "14", "16", "17", "hw", "a2", "a3", "a5", "a6"} {
		if err := run(options{fig: fig, scaled: true, out: io.Discard}); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(options{fig: "4", scaled: true, csv: true, out: &buf}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ",") {
		t.Fatalf("CSV output has no commas:\n%s", buf.String())
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run(options{fig: "nope", scaled: true, out: io.Discard}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	err := run(options{fig: "4", workers: -1, out: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("want -workers validation error, got %v", err)
	}
}

// TestRunSweepEndToEnd runs one real sweep experiment through the worker
// pool with the shared plan cache, and checks the -stats summary reports
// the cache activity.
func TestRunSweepEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := run(options{fig: "a2", scaled: true, workers: 4, stats: true, out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Ablation A2") {
		t.Fatalf("missing experiment table:\n%s", out)
	}
	if !strings.Contains(out, "Sweep execution summary") {
		t.Fatalf("missing -stats summary:\n%s", out)
	}
	// A2 varies the sync latency, so every point compiles a distinct plan:
	// 5 points -> 5 misses, 0 hits.
	if !strings.Contains(out, "plan-cache misses") {
		t.Fatalf("missing cache counters:\n%s", out)
	}
}

// TestRunDeterministicAcrossPools locks in the CLI-level determinism
// contract: identical CSV output for pool sizes 1 and 4.
func TestRunDeterministicAcrossPools(t *testing.T) {
	var serial, parallel bytes.Buffer
	if err := run(options{fig: "16", scaled: true, csv: true, workers: 1, out: &serial}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{fig: "16", scaled: true, csv: true, workers: 4, out: &parallel}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("output differs between workers=1 and workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestRunNocStudiesSweepPoints checks that the packet-NoC studies run on
// the sweep pool, one point per distinct simulation: Fig. 13's four
// (collective, mode) runs, and A4's eight distinct networks behind its
// twelve rows.
func TestRunNocStudiesSweepPoints(t *testing.T) {
	for fig, points := range map[string]int{"13": 4, "a4": 8} {
		var buf bytes.Buffer
		if err := run(options{fig: fig, csv: true, workers: 2, stats: true, out: &buf}); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if want := fmt.Sprintf("\npoints,%d\n", points); !strings.Contains(buf.String(), want) {
			t.Fatalf("fig %s: -stats does not report %d points:\n%s", fig, points, buf.String())
		}
	}
}
