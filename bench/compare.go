package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compare reads two files of run records (-out of the parent and of the
// change, measured with the same benchmark code and settings) and gives
// every workload x metric a verdict:
//
//   - better: the change won at least 9 of every 10 pairs (ties count for
//     neither side), with at least 10 pairs run, and the medians differ by
//     more than the parent's own interquartile spread;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound in BENCHMARK.json;
//   - unresolved: the parent's run-to-run spread is wider than the bound,
//     unless every run of the change beats every run of the parent;
//   - same: none of the above.
//
// Runs pair up in file order: the i-th run of a workload in the parent file
// with the i-th in the change file, so the runs should alternate which side
// goes first. Every ratio is printed with its base (the parent's median).
// Per-layer metrics have no bound and get no verdict, only their medians,
// ratio and wins. The exit status is 1 when any metric is worse.

// verdict names.
const (
	vBetter     = "better"
	vWorse      = "worse"
	vUnresolved = "unresolved"
	vSame       = "same"
)

// comparison is one workload x metric row.
type comparison struct {
	workload, metric, unit string
	a, b                   []float64
	wins, pairs            int
	verdict                string
}

func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare parent.jsonl change.jsonl")
		return 2
	}
	root, err := findRoot(".", "..")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	rows := compareRecords(sp, a, b)
	printComparisons(stdout, rows, seedsOf(a), seedsOf(b))
	for _, r := range rows {
		if r.verdict == vWorse {
			return 1
		}
	}
	return 0
}

// readRecords reads a JSON-lines file of run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func seedsOf(recs []record) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, r := range recs {
		if !seen[r.Seed] {
			seen[r.Seed] = true
			out = append(out, r.Seed)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// values collects, in file order, one metric of one workload over the
// successful runs.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Result == nil || !r.Result.Correct {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareRecords builds one comparison per workload x metric present on
// both sides, in BENCHMARK.json order.
func compareRecords(sp *spec, a, b []record) []comparison {
	var rows []comparison
	for _, w := range sp.Workloads {
		for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			for _, m := range list {
				va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				rows = append(rows, judge(w.Name, m, va, vb))
			}
		}
	}
	return rows
}

// judge applies the verdict rules to one metric's runs.
func judge(workload string, m specMetric, a, b []float64) comparison {
	c := comparison{workload: workload, metric: m.Name, unit: m.Unit, a: a, b: b}
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	if m.Bound == 0 {
		return c // per-layer: no verdict
	}
	medA, medB := median(a), median(b)
	q1, q3 := quartiles(a)
	worseBy := (medB - medA) / math.Abs(medA)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	won := c.pairs >= 10 && 10*c.wins >= 9*c.pairs && math.Abs(medB-medA) > math.Abs(q3-q1)
	switch {
	case relSpread(a) > m.Bound && !allBetter:
		c.verdict = vUnresolved
	case worseBy > m.Bound:
		c.verdict = vWorse
	case won:
		c.verdict = vBetter
	default:
		c.verdict = vSame
	}
	return c
}

func printComparisons(w io.Writer, rows []comparison, seedsA, seedsB []int64) {
	fmt.Fprintf(w, "parent seeds %v, change seeds %v\n", seedsA, seedsB)
	fmt.Fprintf(w, "%-17s %-36s %-30s %-30s %-28s %-7s %s\n", "workload", "metric",
		"parent median [q1,q3] (n)", "change median [q1,q3] (n)", "change/parent (base)", "wins", "verdict")
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g,%.4g] (%d)", median(xs), q1, q3, len(xs))
	}
	for _, r := range rows {
		medA := median(r.a)
		ratio := fmt.Sprintf("%.3f (of %.4g %s)", median(r.b)/medA, medA, r.unit)
		verdict := r.verdict
		if verdict == "" {
			verdict = "-"
		}
		fmt.Fprintf(w, "%-17s %-36s %-30s %-30s %-28s %-7s %s\n", r.workload, r.metric,
			side(r.a), side(r.b), ratio, fmt.Sprintf("%d/%d", r.wins, r.pairs), verdict)
	}
}
