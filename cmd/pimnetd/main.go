// Command pimnetd serves the simulator as a long-running HTTP/JSON daemon:
// experiment points go in, deterministic latency results come out, and every
// request compiles through one process-wide plan cache.
//
// Usage:
//
//	pimnetd -addr 127.0.0.1:8080
//	pimnetd -addr :0 -max-inflight 8 -queue-depth 32 -timeout 10s
//	pimnetd -addr :8080 -coordinator -workers http://10.0.0.1:8080,http://10.0.0.2:8080
//
// Endpoints:
//
//	POST /v1/simulate          one experiment point (collective or workload)
//	POST /v1/sweep             a DPUs x bytes grid on the parallel sweep engine
//	POST /v1/noc/sweep         packet-level adversarial traffic grid
//	POST /v1/chunk             one contiguous grid slice (cluster-internal fan-out)
//	POST /v1/jobs              submit any of the above asynchronously; returns a job ID
//	GET  /v1/jobs/{id}         poll job status with partial results
//	GET  /v1/jobs/{id}/result  fetch the finished job's bytes (identical to sync)
//	GET  /v1/jobs/{id}/events  live progress stream (server-sent events)
//	GET  /healthz              liveness (503 once draining)
//	GET  /metrics              Prometheus text exposition (requests, plan cache,
//	                           store, coalescing, job queues, per-tenant counters)
//
// Async jobs run -max-jobs at a time, scheduled by deficit round robin over
// per-tenant queues: -tenant-quotas "acme=4,free=1" caps each tenant's
// concurrently running jobs and sets its fair-share weight (0 rejects the
// tenant; unlisted tenants share the "default" pool). Finished jobs stay
// fetchable for -job-ttl.
//
// In -coordinator mode /v1/sweep grids are split into -chunk-size chunks
// and fanned over the -workers fleet (plain pimnetd processes) with
// consistent-hash placement, health-probe-driven ejection, retry with
// capped jittered backoff, hedged re-dispatch of stragglers, and local
// execution as the degradation path. Assembled results are byte-identical
// to a single-node sweep regardless of fleet behavior.
//
// With -store-dir the daemon keeps a persistent, content-addressed result
// store: finished results survive restarts (warm daemons answer repeated
// points and chunks from disk, byte-identical and without simulating or
// compiling), bounded by -store-max-bytes with LRU eviction. Compiled plans
// stay in memory. A store written by a different build is purged on boot,
// never trusted.
//
// The daemon sheds load with 503 + a jittered Retry-After once
// -max-inflight requests are executing and -queue-depth more are waiting,
// coalesces concurrent requests for the same point (from any endpoint) onto
// one execution, and bounds every request by -timeout. On SIGINT/SIGTERM it
// stops accepting work, drains in-flight requests for up to -grace, and
// exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimnet/internal/cluster"
	"pimnet/internal/serve"
	"pimnet/internal/store"
	"pimnet/internal/version"
)

// options collects the parsed command line.
type options struct {
	addr            string
	maxInFlight     int
	queueDepth      int
	timeout         time.Duration
	grace           time.Duration
	maxBody         int64
	maxSweepPoints  int
	maxSweepWorkers int

	storeDir      string
	storeMaxBytes int64

	maxJobs      int
	jobTTL       time.Duration
	tenantQuotas string

	coordinator  bool
	workers      string
	chunkSize    int
	chunkTimeout time.Duration
	chunkRetries int
	hedgeAfter   time.Duration
	probeEvery   time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; :0 picks an ephemeral port)")
	flag.IntVar(&o.maxInFlight, "max-inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
	flag.IntVar(&o.queueDepth, "queue-depth", -1, "max requests waiting for a slot (-1 = 4x max-inflight, 0 = no queue)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request deadline (queue wait + execution)")
	flag.DurationVar(&o.grace, "grace", 15*time.Second, "drain deadline after SIGINT/SIGTERM")
	flag.Int64Var(&o.maxBody, "max-body-bytes", 1<<20, "max request body size in bytes")
	flag.IntVar(&o.maxSweepPoints, "max-sweep-points", 4096, "max grid points in one /v1/sweep request")
	flag.IntVar(&o.maxSweepWorkers, "max-sweep-workers", 0, "max worker pool per sweep request (0 = GOMAXPROCS)")
	flag.IntVar(&o.maxJobs, "max-jobs", 0, "max concurrently running async jobs (0 = max-inflight)")
	flag.DurationVar(&o.jobTTL, "job-ttl", 0, "how long finished jobs stay fetchable (0 = default 15m)")
	flag.StringVar(&o.tenantQuotas, "tenant-quotas", "", "per-tenant job quotas, e.g. \"acme=4,free=1\" (0 rejects the tenant; unlisted tenants share the default pool)")
	flag.StringVar(&o.storeDir, "store-dir", "", "persistent result store directory: restarts start hot (empty = no store)")
	flag.Int64Var(&o.storeMaxBytes, "store-max-bytes", 0, "store disk budget before LRU eviction (0 = unlimited; requires -store-dir)")
	flag.BoolVar(&o.coordinator, "coordinator", false, "run as a cluster coordinator: fan /v1/sweep grids over -workers")
	flag.StringVar(&o.workers, "workers", "", "comma-separated worker base URLs (coordinator mode)")
	flag.IntVar(&o.chunkSize, "chunk-size", 0, "grid points per dispatched chunk (0 = default 8)")
	flag.DurationVar(&o.chunkTimeout, "chunk-timeout", 0, "per-chunk dispatch attempt deadline (0 = default 30s)")
	flag.IntVar(&o.chunkRetries, "chunk-retries", 0, "remote dispatch rounds per chunk before running it locally (0 = default 3)")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", 0, "straggler delay before hedged re-dispatch (0 = default 500ms, negative disables)")
	flag.DurationVar(&o.probeEvery, "probe-interval", 0, "worker health-probe interval (0 = default 2s)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	workers, quotas, err := validate(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimnetd:", err)
		os.Exit(2)
	}
	if err := run(o, workers, quotas); err != nil {
		fmt.Fprintln(os.Stderr, "pimnetd:", err)
		os.Exit(1)
	}
}

// validate rejects inconsistent or out-of-range flags upfront with a
// one-line message — a daemon must refuse to boot misconfigured rather
// than misbehave at runtime (a zero timeout, say, would fail every request
// with 504 the moment it arrived). It returns the parsed worker list
// (coordinator mode) and tenant quota map.
func validate(o options) ([]string, map[string]int, error) {
	if o.timeout <= 0 {
		return nil, nil, fmt.Errorf("-timeout must be > 0, got %v", o.timeout)
	}
	if o.grace <= 0 {
		return nil, nil, fmt.Errorf("-grace must be > 0, got %v", o.grace)
	}
	if o.maxInFlight < 0 {
		return nil, nil, fmt.Errorf("-max-inflight must be >= 0, got %d", o.maxInFlight)
	}
	if o.queueDepth < -1 {
		return nil, nil, fmt.Errorf("-queue-depth must be >= -1, got %d", o.queueDepth)
	}
	if o.maxBody <= 0 {
		return nil, nil, fmt.Errorf("-max-body-bytes must be > 0, got %d", o.maxBody)
	}
	if o.maxSweepPoints <= 0 {
		return nil, nil, fmt.Errorf("-max-sweep-points must be > 0, got %d", o.maxSweepPoints)
	}
	if o.maxSweepWorkers < 0 {
		return nil, nil, fmt.Errorf("-max-sweep-workers must be >= 0, got %d", o.maxSweepWorkers)
	}
	if o.maxJobs < 0 {
		return nil, nil, fmt.Errorf("-max-jobs must be >= 0, got %d", o.maxJobs)
	}
	if o.jobTTL < 0 {
		return nil, nil, fmt.Errorf("-job-ttl must be >= 0, got %v", o.jobTTL)
	}
	quotas, err := parseTenantQuotas(o.tenantQuotas)
	if err != nil {
		return nil, nil, err
	}
	if o.chunkSize < 0 {
		return nil, nil, fmt.Errorf("-chunk-size must be >= 0, got %d", o.chunkSize)
	}
	if o.chunkRetries < 0 {
		return nil, nil, fmt.Errorf("-chunk-retries must be >= 0, got %d", o.chunkRetries)
	}
	if o.chunkTimeout < 0 {
		return nil, nil, fmt.Errorf("-chunk-timeout must be >= 0, got %v", o.chunkTimeout)
	}
	if o.probeEvery < 0 {
		return nil, nil, fmt.Errorf("-probe-interval must be >= 0, got %v", o.probeEvery)
	}
	if o.storeMaxBytes < 0 {
		return nil, nil, fmt.Errorf("-store-max-bytes must be >= 0, got %d", o.storeMaxBytes)
	}
	if o.storeMaxBytes > 0 && o.storeDir == "" {
		return nil, nil, errors.New("-store-max-bytes requires -store-dir")
	}
	if !o.coordinator {
		if o.workers != "" {
			return nil, nil, errors.New("-workers requires -coordinator")
		}
		return nil, quotas, nil
	}
	if o.workers == "" {
		return nil, nil, errors.New("-coordinator requires at least one -workers URL")
	}
	var workers []string
	for _, w := range strings.Split(o.workers, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		u, err := url.Parse(w)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, nil, fmt.Errorf("-workers entry %q is not a base URL (want http://host:port)", w)
		}
		workers = append(workers, strings.TrimRight(w, "/"))
	}
	if len(workers) == 0 {
		return nil, nil, errors.New("-coordinator requires at least one -workers URL")
	}
	return workers, quotas, nil
}

// parseTenantQuotas parses the -tenant-quotas syntax: comma-separated
// name=N entries, N >= 0 (nil for the empty string).
func parseTenantQuotas(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	quotas := map[string]int{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-quotas entry %q is not name=N", entry)
		}
		q, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("-tenant-quotas entry %q: quota %q is not an integer", entry, val)
		}
		if q < 0 {
			return nil, fmt.Errorf("-tenant-quotas entry %q: quota must be >= 0", entry)
		}
		if _, dup := quotas[name]; dup {
			return nil, fmt.Errorf("-tenant-quotas names %q twice", name)
		}
		quotas[name] = q
	}
	if len(quotas) == 0 {
		return nil, fmt.Errorf("-tenant-quotas %q has no entries", s)
	}
	return quotas, nil
}

// run serves until SIGINT/SIGTERM, then drains: the serving core refuses new
// experiment requests (healthz turns 503 so load balancers stop routing
// here) while requests already admitted run to completion, bounded by grace.
func run(o options, workers []string, quotas map[string]int) error {
	cfg := serve.Config{
		MaxInFlight:     o.maxInFlight,
		QueueDepth:      o.queueDepth,
		Timeout:         o.timeout,
		MaxBodyBytes:    o.maxBody,
		MaxSweepPoints:  o.maxSweepPoints,
		MaxSweepWorkers: o.maxSweepWorkers,
		MaxJobs:         o.maxJobs,
		JobTTL:          o.jobTTL,
		TenantQuotas:    quotas,
	}

	if o.storeDir != "" {
		// The fingerprint stamps the store with this build's compiled-plan
		// identity; an old directory is purged on open rather than trusted.
		fp, err := store.Fingerprint()
		if err != nil {
			return fmt.Errorf("store fingerprint: %w", err)
		}
		st, err := store.Open(store.Config{Dir: o.storeDir, MaxBytes: o.storeMaxBytes, Fingerprint: fp})
		if err != nil {
			return err
		}
		cfg.Store = st
		stats := st.Stats()
		fmt.Printf("pimnetd: store %s (%d entries, %d bytes)\n", st.Dir(), stats.Entries, stats.Bytes)
	}

	// In coordinator mode the server and the coordinator reference each
	// other: the server delegates /v1/sweep to the coordinator, and the
	// coordinator runs orphaned chunks back on the server (inside the sweep
	// request's admission slot). The late-bound closure breaks the cycle —
	// s is assigned before the listener accepts anything.
	var s *serve.Server
	var coord *cluster.Coordinator
	if o.coordinator {
		var err error
		coord, err = cluster.New(cluster.Config{
			Workers:       workers,
			ChunkSize:     o.chunkSize,
			ChunkTimeout:  o.chunkTimeout,
			MaxAttempts:   o.chunkRetries,
			HedgeAfter:    o.hedgeAfter,
			ProbeInterval: o.probeEvery,
			Local: func(ctx context.Context, req serve.ChunkRequest) ([]serve.SweepPoint, error) {
				return s.RunChunk(ctx, req)
			},
		})
		if err != nil {
			return err
		}
		cfg.Sweeper = coord
	}
	s = serve.New(cfg)

	// The signal handler goes in before the listener exists: a SIGTERM that
	// arrives as soon as the address is printed must drain, not kill.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if coord != nil {
		coord.Start()
		defer coord.Close()
		fmt.Printf("pimnetd: coordinating %d workers: %s\n", len(workers), strings.Join(workers, ", "))
	}
	fmt.Printf("pimnetd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Println("pimnetd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("pimnetd: drained, exiting")
	return nil
}
