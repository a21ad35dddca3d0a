// Command bench is the repository's benchmark: it times what users of the
// simulator wait for — a full paper regeneration with pimnetbench, and
// pimnetd requests under closed-loop load — and, in a separate traced run,
// splits that time by layer.
//
// It builds cmd/pimnetbench and cmd/pimnetd from the checkout (untimed) and
// drives them as a user would: fresh processes, loopback HTTP on ephemeral
// ports, and min(2, nproc) closed-loop clients on keep-alive connections.
//
// Usage, from the repository root (bench/run.sh builds this command with
// the build cache kept inside the checkout):
//
//	bash bench/run.sh -workload <regen|serve-collective|serve-workload|serve-restart|all> -seed N
//	                  [-seconds S] [-trace 0|1] [-out results.jsonl] [-smoke]
//	bash bench/run.sh compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with -trace 0, per-layer with
// -trace 1). See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadRunners maps each workload name to its end-to-end procedure, in the
// order -workload all runs them.
var workloadRunners = []struct {
	name string
	run  func(*runCtx) (*e2e, error)
}{
	{"regen", runRegen},
	{"serve-collective", runServeCollective},
	{"serve-workload", runServeWorkload},
	{"serve-restart", runServeRestart},
}

// workloadTimeout bounds one workload run, which must end within 180
// seconds.
const workloadTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// options are the parsed flags of a benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	smoke    bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: regen, serve-collective, serve-workload, serve-restart, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 25, "how long each workload measures")
	fs.IntVar(&o.trace, "trace", 0, "1 = per-layer traced run instead of the end-to-end measurement")
	fs.StringVar(&o.out, "out", "", "append one JSON record per workload run to `file`")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs: exercise every workload end to end in seconds")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	}
	if o.workload != "all" && runnerIndex(o.workload) < 0 {
		return o, fmt.Errorf("-workload %q: want regen, serve-collective, serve-workload, serve-restart, or all", o.workload)
	}
	return o, nil
}

func runnerIndex(name string) int {
	for i, w := range workloadRunners {
		if w.name == name {
			return i
		}
	}
	return -1
}

// findRoot returns the first of dirs that is the simulator module's root.
// The harness looks in the current directory and its parent, so it runs
// from the repository root and from bench/ (as its tests do).
func findRoot(dirs ...string) (string, error) {
	for _, c := range dirs {
		data, err := os.ReadFile(filepath.Join(c, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module pimnet\n") {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("not in a pimnet checkout: no go.mod declaring module pimnet here or in the parent directory")
}

// record is one workload run as appended to the -out file; compare reads
// these.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    int            `json:"trace"`
	Smoke    bool           `json:"smoke,omitempty"`
	NumCPU   int            `json:"nproc"`
	Clients  int            `json:"clients"`
	Result   *result        `json:"result,omitempty"`
	Samples  map[string]int `json:"samples,omitempty"`
	Passes   []passStat     `json:"passes,omitempty"`
	Problems []string       `json:"problems,omitempty"`
	Error    string         `json:"error,omitempty"`
	Logs     []string       `json:"logs,omitempty"`
	Spans    string         `json:"spans,omitempty"`
}

func benchMain(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	root, err := findRoot(".", "..")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	// Every exit path cancels the context, which kills any child still
	// running, and then waits until each child has been reaped.
	defer children.Wait()
	defer cancel()

	build := filepath.Join(root, ".bench_build")
	bins, err := buildBinaries(ctx, root, filepath.Join(build, "bin"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloadRunners {
			names = append(names, w.name)
		}
	}
	size := fullSize
	if o.smoke {
		size = smokeSize
	}
	clients := min(2, runtime.NumCPU())
	code := 0
	var lines []string
	table := map[string]map[string]metricValue{}
	for _, name := range names {
		rec := record{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			Smoke: o.smoke, NumCPU: runtime.NumCPU(), Clients: clients}
		wctx, wcancel := context.WithTimeout(ctx, workloadTimeout)
		rc := &runCtx{ctx: wctx, root: root, bins: bins, seed: o.seed,
			seconds: time.Duration(o.seconds) * time.Second, clients: clients, size: size, tmp: tmp}
		if o.trace == 1 {
			rec.Spans = filepath.Join(build, fmt.Sprintf("spans-%s-%d.json", name, o.seed))
		}
		res, samples, e, err := runOne(rc, name, rec.Spans, stdout)
		wcancel()
		rec.Result, rec.Samples = res, samples
		if e != nil {
			rec.Problems, rec.Logs = e.problems, e.logs
			for _, p := range e.passes {
				rec.Passes = append(rec.Passes, p.stat())
			}
		}
		if err != nil {
			rec.Error = err.Error()
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			for _, l := range rec.Logs {
				fmt.Fprintf(os.Stderr, "bench: daemon output:\n%s\n", l)
			}
			code = 1
		}
		if res != nil {
			if !res.Correct {
				code = 1
			}
			line, _ := json.Marshal(res)
			lines = append(lines, string(line))
			if o.trace == 0 {
				table[name] = res.Metrics
			}
		}
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
		if ctx.Err() != nil {
			return 1
		}
	}
	if o.trace == 0 && len(table) > 0 {
		fmt.Fprintln(stdout)
		printTable(stdout, names, table)
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return code
}

// runOne runs one workload (and, for -trace 1, the layer ladder) and
// returns its result line, the sample count behind each metric, and the raw
// end-to-end observations (with the run's failed checks and daemon logs).
func runOne(rc *runCtx, name, spanFile string, stdout io.Writer) (*result, map[string]int, *e2e, error) {
	if spanFile != "" {
		rc.rec = newRecorder()
		rc.top = rc.rec.start("run."+name, active{}, 0)
	}
	fmt.Fprintf(stdout, "== %s  seed %d  clients %d  nproc %d\n", name, rc.seed, rc.clients, runtime.NumCPU())
	res, err := workloadRunners[runnerIndex(name)].run(rc)
	if err != nil {
		return nil, nil, res, err
	}
	fmt.Fprintf(stdout, "  passes %d, requests %d attempted, %d failed\n", len(res.passes), res.attempted, res.failed)
	printPasses(stdout, res)
	defs, ms := endToEnd, res.endToEndMetrics()
	if rc.traced() {
		layers, err := runLadder(rc)
		if err != nil {
			return nil, nil, res, err
		}
		for k, v := range res.serveLayerMetrics() {
			layers[k] = v
		}
		rc.top.end()
		spans := rc.rec.snapshot()
		if err := writeSpans(spanFile, spans); err != nil {
			return nil, nil, res, err
		}
		printSummary(stdout, spans)
		fmt.Fprintf(stdout, "  spans: %d -> %s\n", len(spans), spanFile)
		defs, ms = perLayer, layers
	}
	printMetrics(stdout, defs, ms)
	vals, err := makeResult(defs, ms)
	if err != nil {
		return nil, nil, res, err
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	samples := make(map[string]int, len(defs))
	for _, d := range defs {
		samples[d.name] = ms[d.name].n
	}
	return &result{Correct: len(res.problems) == 0, Attempted: res.attempted,
		Failed: res.failed, Metrics: vals}, samples, res, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
