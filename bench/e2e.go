package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// sizes fixes how much work each workload does per pass. The benchmark
// runs fullSize; the -smoke pass (and the harness's own tests) run
// smokeSize, which exercises every code path in a few seconds.
type sizes struct {
	collective      collectiveShape
	workloadsScaled bool // serve-workload: scaled instead of paper-sized inputs
	restart         restartShape
	regenArgs       []string // pimnetbench arguments of one regeneration
	regenDigest     string   // bench/testdata file holding its stdout digest
	setupLaunches   int      // daemon launches behind setup_s
	regenLaunches   int      // pimnetbench launches behind regen's setup_s
	restarts        int      // restarts per serve-restart pass
	samplePoints    int      // collective points recomputed by the library
	ladder          ladderSizes
}

var fullSize = sizes{
	collective:      collectiveShape{Requests: 40000, Hot: 32, Pool: 2000, HotShare: 0.7},
	workloadsScaled: false,
	restart: restartShape{Requests: 800, CollectivePool: 150, SweepPool: 40, NocPool: 8,
		WorkloadsScaled: true},
	regenArgs:     nil,
	regenDigest:   "regen.sha256",
	setupLaunches: 11,
	regenLaunches: 31,
	restarts:      3,
	samplePoints:  32,
	ladder:        fullLadder,
}

var smokeSize = sizes{
	collective:      collectiveShape{Requests: 300, Hot: 8, Pool: 40, HotShare: 0.7},
	workloadsScaled: true,
	restart: restartShape{Requests: 60, CollectivePool: 20, SweepPool: 4, NocPool: 2,
		WorkloadsScaled: true},
	regenArgs:     []string{"-scaled", "-fig", "10"},
	regenDigest:   "regen_smoke.sha256",
	setupLaunches: 2,
	regenLaunches: 2,
	restarts:      1,
	samplePoints:  8,
	ladder:        smokeLadder,
}

// runCtx is everything one workload run needs.
type runCtx struct {
	ctx     context.Context
	root    string
	bins    binaries
	seed    int64
	seconds time.Duration
	clients int
	size    sizes
	tmp     string    // scratch directory inside the checkout
	rec     *recorder // nil unless this is the traced run
	top     active    // the run's root span
}

// traced reports whether this is the per-layer traced run, which makes one
// pass of the workload (with client-side spans) before the layer ladder.
func (rc *runCtx) traced() bool { return rc.rec != nil }

// pass is what one pass of a workload measured.
type pass struct {
	batch time.Duration   // wall time of the pass's fixed batch
	lat   []time.Duration // latency of each completed measured request
	rss   float64         // peak RSS of the program under test, MB
}

// e2e accumulates one workload run's end-to-end observations.
type e2e struct {
	setup     []time.Duration // set-up samples behind setup_s
	passes    []pass
	attempted int
	failed    int
	cpu       time.Duration // CPU time of the program under test over the measured phases
	ops       int           // completed operations the CPU time covers
	scrape    scrapeDelta
	problems  []string // correctness failures
	logs      []string // daemon output, attached when something failed
}

// count adds one closed-loop phase's requests to the attempted and failed
// totals and returns the latencies of those that completed with a 2xx.
func (e *e2e) count(outs []outcome) []time.Duration {
	e.attempted += len(outs)
	lat := make([]time.Duration, 0, len(outs))
	for _, o := range outs {
		if !o.ok() {
			e.failed++
			continue
		}
		lat = append(lat, o.lat)
	}
	return lat
}

// passes runs the workload's fixed batch as often as fits in rc.seconds:
// the first pass's duration fixes the count, rounded to the nearest whole
// number of passes (at least one). Rounding keeps the count, and with it
// the sample, the same from run to run unless a pass takes close to an odd
// multiple of half the budget. The traced run makes exactly one pass.
func (rc *runCtx) passes(fn func(pass int) error) error {
	start := time.Now()
	if err := fn(0); err != nil {
		return err
	}
	n := 1
	if !rc.traced() {
		n = max(1, int(math.Round(float64(rc.seconds)/float64(time.Since(start)))))
	}
	for pass := 1; pass < n; pass++ {
		if err := rc.ctx.Err(); err != nil {
			return err
		}
		if err := fn(pass); err != nil {
			return err
		}
	}
	return nil
}

// measureSetup launches and drains a daemon n times and records the time
// from process start to the first 200 from /healthz.
func (rc *runCtx) measureSetup(res *e2e, n int, args ...string) error {
	for i := 0; i < n; i++ {
		sp := rc.rec.start("setup.launch", rc.top, 0)
		d, setup, err := launchDaemon(rc.ctx, rc.bins.daemon, args...)
		sp.end()
		if err != nil {
			return err
		}
		res.setup = append(res.setup, setup)
		if err := d.stop(); err != nil && !d.diedOfTerm() {
			return err
		}
	}
	return nil
}

// measuredLoop runs items through the closed loop against d and returns the
// pass it measured: the loop's wall time as the batch, the latencies, and
// the daemon's peak RSS. It adds the daemon's CPU time and the change in its
// /metrics counters around the loop to res.
func (rc *runCtx) measuredLoop(d *daemon, items []item, res *e2e, id *identity, smp *sampler, parent active) (pass, error) {
	before, err := scrapeMetrics(rc.ctx, d.base)
	if err != nil {
		return pass{}, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return pass{}, err
	}
	loop := closedLoop{base: d.base, clients: rc.clients, rec: rc.rec, parent: parent}
	if smp != nil {
		loop.keep = smp.keep
	}
	outs, wall := loop.run(rc.ctx, items)
	if err := rc.ctx.Err(); err != nil {
		return pass{}, err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return pass{}, err
	}
	after, err := scrapeMetrics(rc.ctx, d.base)
	if err != nil {
		return pass{}, err
	}
	p := pass{batch: wall, lat: res.count(outs)}
	res.cpu += cpu1 - cpu0
	res.ops += len(p.lat)
	res.scrape.add(diffScrape(before, after))
	id.add(items, outs)
	if smp != nil {
		smp.add(items, outs)
	}
	if p.rss, err = d.peakRSSMB(); err != nil {
		return pass{}, err
	}
	return p, nil
}

// withDaemon launches a daemon, runs fn against it and drains it, and
// returns the daemon's set-up time. On any failure the daemon is killed and
// its output kept for the result.
func (rc *runCtx) withDaemon(res *e2e, fn func(d *daemon) error, args ...string) (time.Duration, error) {
	d, setup, err := launchDaemon(rc.ctx, rc.bins.daemon, args...)
	if err != nil {
		return 0, err
	}
	if err := fn(d); err != nil {
		d.kill()
		res.logs = append(res.logs, d.log.String())
		return 0, err
	}
	if err := d.stop(); err != nil {
		res.logs = append(res.logs, d.log.String())
		return 0, err
	}
	return setup, nil
}

// runRegen: fresh pimnetbench processes regenerating every figure and table
// with paper-sized inputs. Set-up is the launch-to-exit time of the
// smallest regeneration (Table IV alone): binary load, runtime start and
// package initialisation, which every regeneration pays first.
func runRegen(rc *runCtx) (*e2e, error) {
	res := &e2e{}
	want, err := readDigest(rc.root, rc.size.regenDigest)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rc.size.regenLaunches; i++ {
		sp := rc.rec.start("setup.launch", rc.top, 0)
		r, err := runProcess(rc.ctx, rc.bins.bench, "-fig", "4")
		sp.end()
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, r.wall)
	}
	err = rc.passes(func(i int) error {
		sp := rc.rec.start("client.regen", rc.top, int64(i))
		r, err := runProcess(rc.ctx, rc.bins.bench, rc.size.regenArgs...)
		sp.end()
		res.attempted++
		if err != nil {
			if rc.ctx.Err() != nil {
				return rc.ctx.Err()
			}
			res.failed++
			res.logs = append(res.logs, err.Error())
			return nil
		}
		if got := sha256Hex(r.stdout); got != want {
			res.problems = append(res.problems,
				fmt.Sprintf("regeneration %d: stdout sha256 %s, want %s", i, got, want))
		}
		res.passes = append(res.passes, pass{batch: r.wall, lat: []time.Duration{r.wall}, rss: r.rssMB})
		res.cpu += r.cpu
		res.ops++
		return nil
	})
	return res, err
}

// runServeCollective: a daemon without a store answering the seeded
// collective stream; every pass starts a fresh daemon, so each pass
// compiles its cold pool points once.
func runServeCollective(rc *runCtx) (*e2e, error) {
	res := &e2e{}
	items := collectiveStream(rc.seed, rc.size.collective)
	id := newIdentity()
	smp := newSampler(samplePoints(rc.seed, items, rc.size.samplePoints))
	if err := rc.measureSetup(res, rc.size.setupLaunches); err != nil {
		return nil, err
	}
	err := rc.passes(func(i int) error {
		sp := rc.rec.start("pass", rc.top, int64(i))
		defer sp.end()
		_, err := rc.withDaemon(res, func(d *daemon) error {
			p, err := rc.measuredLoop(d, items, res, id, smp, sp)
			if err != nil {
				return err
			}
			res.passes = append(res.passes, p)
			return nil
		})
		return err
	})
	if err != nil {
		return res, err
	}
	res.problems = append(res.problems, id.problems...)
	res.problems = append(res.problems, smp.check()...)
	return res, nil
}

// runServeWorkload: a daemon without a store answering full-size workload
// simulations, 18 per pass (9 workloads x 2 generator seeds). After each
// pass the first two requests are sent once more, untimed, to check that
// the daemon answers them with the same bytes.
func runServeWorkload(rc *runCtx) (*e2e, error) {
	res := &e2e{}
	id := newIdentity()
	if err := rc.measureSetup(res, rc.size.setupLaunches); err != nil {
		return nil, err
	}
	items := workloadPass(rc.seed, rc.size.workloadsScaled)
	err := rc.passes(func(i int) error {
		sp := rc.rec.start("pass", rc.top, int64(i))
		defer sp.end()
		_, err := rc.withDaemon(res, func(d *daemon) error {
			p, err := rc.measuredLoop(d, items, res, id, nil, sp)
			if err != nil {
				return err
			}
			res.passes = append(res.passes, p)
			// Untimed: the first two requests again, which must come back
			// byte-identical from the same daemon.
			loop := closedLoop{base: d.base, clients: rc.clients}
			outs, _ := loop.run(rc.ctx, items[:2])
			if err := rc.ctx.Err(); err != nil {
				return err
			}
			res.count(outs)
			id.add(items, outs)
			return nil
		})
		return err
	})
	if err != nil {
		return res, err
	}
	res.problems = append(res.problems, id.problems...)
	return res, nil
}

// runServeRestart: a daemon with a persistent store fills it from the
// seeded stream, drains, restarts on the same directory and replays the
// identical stream. The pass's batch is the fill (writes) and the replay
// (reads) together; set-up is the restart onto the populated store; the
// request latencies come from the replay.
func runServeRestart(rc *runCtx) (*e2e, error) {
	res := &e2e{}
	items := restartStream(rc.seed, rc.size.restart)
	id := newIdentity()
	smp := newSampler(samplePoints(rc.seed, items, rc.size.samplePoints))
	err := rc.passes(func(i int) error {
		sp := rc.rec.start("pass", rc.top, int64(i))
		defer sp.end()
		dir := filepath.Join(rc.tmp, fmt.Sprintf("store-%d", i))
		defer os.RemoveAll(dir)
		store := []string{"-store-dir", dir}

		var fill time.Duration
		_, err := rc.withDaemon(res, func(d *daemon) error {
			fsp := rc.rec.start("fill", sp, int64(i))
			loop := closedLoop{base: d.base, clients: rc.clients, rec: rc.rec, parent: fsp, keep: smp.keep}
			outs, wall := loop.run(rc.ctx, items)
			fsp.end()
			if err := rc.ctx.Err(); err != nil {
				return err
			}
			res.count(outs)
			fill = wall
			id.add(items, outs)
			smp.add(items, outs)
			return nil
		}, store...)
		if err != nil {
			return err
		}
		if err := rc.measureSetup(res, rc.size.restarts-1, store...); err != nil {
			return err
		}
		setup, err := rc.withDaemon(res, func(d *daemon) error {
			rsp := rc.rec.start("replay", sp, int64(i))
			defer rsp.end()
			p, err := rc.measuredLoop(d, items, res, id, nil, rsp)
			if err != nil {
				return err
			}
			p.batch += fill
			res.passes = append(res.passes, p)
			return nil
		}, store...)
		if err != nil {
			return err
		}
		res.setup = append(res.setup, setup)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.problems = append(res.problems, id.problems...)
	res.problems = append(res.problems, smp.check()...)
	return res, nil
}
