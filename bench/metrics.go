package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// metricDef is a metric the harness emits. BENCHMARK.json lists the same
// names, units and directions (TestSpecMatchesHarness keeps the two equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run. The result format needs
// every one of them on every workload, so each must mean something on each;
// a "batch" is the fixed work of one pass (see bench/README.md). Request
// latency is printed and kept per pass in the run record, but it is not a
// bounded metric: its run-to-run spread is wider than any bound the format
// allows on some workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"batch_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// measurement is one metric value with the number of samples behind it.
type measurement struct {
	value float64
	n     int
}

// passStat is one pass's end-to-end numbers, kept in the run record.
type passStat struct {
	BatchS float64 `json:"batch_s"`
	P50Ms  float64 `json:"req_p50_ms"`
	N      int     `json:"requests"`
	RSSMB  float64 `json:"peak_rss_mb"`
}

func (p pass) stat() passStat {
	return passStat{BatchS: p.batch.Seconds(), P50Ms: percentile(millis(p.lat), 50), N: len(p.lat), RSSMB: p.rss}
}

// endToEndMetrics reduces a workload run to its end-to-end metrics: the
// median over set-up samples and over passes.
func (e *e2e) endToEndMetrics() map[string]measurement {
	var batch, rss []float64
	for _, p := range e.passes {
		batch, rss = append(batch, p.batch.Seconds()), append(rss, p.rss)
	}
	setup := make([]float64, len(e.setup))
	for i, d := range e.setup {
		setup[i] = d.Seconds()
	}
	return map[string]measurement{
		"setup_s":     {median(setup), len(setup)},
		"batch_s":     {median(batch), len(batch)},
		"peak_rss_mb": {median(rss), len(rss)},
	}
}

// printPasses writes one line per pass.
func printPasses(w io.Writer, e *e2e) {
	for i, p := range e.passes {
		s := p.stat()
		fmt.Fprintf(w, "  pass %d: batch %.4g s, request latency p50 %.4g ms of %d, peak RSS %.4g MB\n",
			i+1, s.BatchS, s.P50Ms, s.N, s.RSSMB)
	}
}

// serveLayerMetrics are the per-layer metrics the traced run takes from
// the end-to-end pass itself rather than from the ladder.
func (e *e2e) serveLayerMetrics() map[string]measurement {
	cpuPerReq := 0.0
	if e.ops > 0 {
		cpuPerReq = float64(e.cpu) / float64(time.Millisecond) / float64(e.ops)
	}
	s := e.scrape
	return map[string]measurement{
		"serve.plan_cache_hit_ratio": {ratio(s.planHits, s.planLookups), int(s.planLookups)},
		"serve.store_hit_ratio":      {ratio(s.storeHits, s.storeLookups), int(s.storeLookups)},
		"serve.coalesced":            {s.coalesced, 1},
		"serve.rejected":             {s.rejected, 1},
		"proc.cpu_ms_per_req":        {cpuPerReq, e.ops},
	}
}

// result is the machine-readable line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// makeResult keeps exactly the metrics of defs from ms. A metric that could
// not be measured (NaN or missing) is an error: the run must report every
// metric it promises.
func makeResult(defs []metricDef, ms map[string]measurement) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m, ok := ms[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: m.value, Unit: d.unit}
	}
	return out, nil
}

// printMetrics writes one line per metric with its sample count.
func printMetrics(w io.Writer, defs []metricDef, ms map[string]measurement) {
	for _, d := range defs {
		m := ms[d.name]
		fmt.Fprintf(w, "  %-40s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
	}
}

// printTable writes the end-to-end metrics with one row per workload.
func printTable(w io.Writer, rows []string, vals map[string]map[string]metricValue) {
	fmt.Fprintf(w, "%-18s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %16s", d.name+"/"+d.unit)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		if vals[r] == nil {
			continue
		}
		fmt.Fprintf(w, "%-18s", r)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %16.6g", vals[r][d.name].Value)
		}
		fmt.Fprintln(w)
	}
}
