# Developer entry points. `make check` is the CI gate: vet plus the full
# test suite under the race detector, then the per-package coverage floor.

GO ?= go

# Packages that must stay above the coverage floor (in percent): the plan
# compiler/cache, the parallel sweep engine, the event queue and the packet
# NoC are the determinism-critical core of the harness.
COVER_PKGS = ./internal/core ./internal/sweep ./internal/sim ./internal/noc
COVER_FLOOR = 80

.PHONY: build bench-build test vet check cover loc fuzz bench benchcmp profile profile-noc profile-regen regen-check golden trace-smoke serve-smoke cluster-smoke store-smoke crossover-smoke

# Benchmarks gated by the regression check (make benchcmp). Engine covers the
# event queue, Execute covers the plan-replay hot path, Store covers the
# persistent store's cold-miss / warm-hit / write paths on the serving tier,
# Noc covers the flat packet simulator at 256 and 2560 nodes, Cxl covers the
# CXL-PIM backend's decompose + intra-phase replay path, RMATLogGowalla,
# SparseGenerate and NamedFull cover the paper-sized workload input
# generators and a one-workload lookup (BFS reads the warm paper-graph
# memo), PaperGraphFacts covers the memo's cold traversal (R-MAT, BFS, CC),
# SuiteFull covers one paper-sized suite build over a warm memo (the SpMV
# tile counts and the phase graphs), PlanWarm covers a plan-cache hit,
# which returns a cached result without building a network or allocating,
# and NewNetwork covers building a channel's link table, one slab per
# network.
GATED_BENCH = Engine|Execute|Store|Noc|Cxl|RMATLogGowalla|SparseGenerate|NamedFull|PaperGraphFacts|SuiteFull|PlanWarm|NewNetwork
GATED_PKGS = ./internal/sim ./internal/core ./internal/store ./internal/noc ./internal/cxlpim \
	./internal/graphgen ./internal/sparse ./internal/workloads

build:
	$(GO) build ./...

# Type-check the benchmark module (bench/), which imports internal packages:
# an internal API change that breaks bench/run.sh fails here. go vet writes
# nothing, where go build would leave a bench/bench binary in the tree.
bench-build:
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The CI gate: static analysis (the benchmark module included), the race-enabled suite (which includes the
# persistent store's crash/corruption/concurrency battery), the coverage
# floor, the smoke tests and the byte identity of a full paper regeneration
# (regen-check) must all pass. The benchmark-regression gate runs soft by default
# (benchmarks are noisy on shared machines); set BENCH_STRICT=1 to make a
# regression fail the build.
check:
	$(MAKE) vet && $(MAKE) bench-build && $(GO) test -race ./... && $(MAKE) cover && $(MAKE) trace-smoke && $(MAKE) serve-smoke && $(MAKE) cluster-smoke && $(MAKE) store-smoke && $(MAKE) crossover-smoke && $(MAKE) regen-check
	@if [ "$(BENCH_STRICT)" = "1" ]; then \
		$(MAKE) benchcmp; \
	else \
		$(MAKE) benchcmp || echo "WARNING: benchmark regression (soft gate; set BENCH_STRICT=1 to fail)"; \
	fi

# Per-package coverage floor: fail if any COVER_PKGS package drops below
# COVER_FLOOR percent of statements.
cover:
	@set -e; for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=/tmp/pimnet-cover.out $$pkg > /dev/null; \
		pct=$$($(GO) tool cover -func=/tmp/pimnet-cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {print (p >= f) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "coverage $$pkg below floor"; exit 1; fi; \
	done; rm -f /tmp/pimnet-cover.out

# Non-test Go lines with bench/ excluded: the code-size figure ROADMAP
# quotes.
loc:
	@find . -path ./bench -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print \
		| xargs cat | wc -l

# Short fuzz pass over the collective verify interpreter (the recovery
# ladder's correctness oracle), the plan-cache key, cached results against
# the replay kernel, the persistent store's blob codec, the event
# queue against a container/heap reference, the packet NoC's delivery
# invariants, and the backend-name parser's round-trip; extend -fuzztime
# for deeper runs.
fuzz:
	$(GO) test -fuzz=FuzzVerify -fuzztime=30s ./internal/collective/
	$(GO) test -fuzz=FuzzPlanCacheKey -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzRecordedTiming -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzStoreDecode -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzStoreRoundTrip -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzEventQueue -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzNocDelivery -fuzztime=30s ./internal/noc/
	$(GO) test -fuzz=FuzzParseBackendKind -fuzztime=30s .

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark-regression gate: run the gated suite, emit bench.json, and
# compare against the committed baseline. Fails on >10% latency regression
# or any allocs/op increase. Refresh the baseline after an intentional
# performance change with:
#	make benchcmp BENCH_BASELINE=BENCH_baseline.json BENCH_EMIT_ONLY=1
BENCH_BASELINE ?= BENCH_baseline.json
benchcmp:
	$(GO) test -run NONE -bench '$(GATED_BENCH)' -benchmem -count=3 $(GATED_PKGS) \
		| $(GO) run ./cmd/benchcmp -emit bench.json
	@if [ "$(BENCH_EMIT_ONLY)" = "1" ]; then \
		cp bench.json $(BENCH_BASELINE); echo "baseline refreshed: $(BENCH_BASELINE)"; \
	else \
		$(GO) run ./cmd/benchcmp -baseline $(BENCH_BASELINE) -current bench.json \
			-match '\.Benchmark($(GATED_BENCH))'; \
	fi

# CPU + heap profiles of the 2560-DPU allreduce sweep, the paper-scale
# plan-replay configuration (the packet NoC simulator, not plan replay,
# dominates pimnetbench wall time: see profile-noc). Inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile: build
	$(GO) run ./cmd/pimnetsim -sweep -sweep-dpus 2560 -sweep-bytes 32768 \
		-pattern allreduce -cpuprofile cpu.pprof -memprofile mem.pprof

# CPU + heap profiles of the packet-level NoC adversarial sweep at 2560
# DPUs — the flat packet core's hot loop.
profile-noc: build
	$(GO) run ./cmd/pimnetbench -fig noc -cpuprofile noc-cpu.pprof -memprofile noc-mem.pprof

# CPU + heap profiles of one full paper regeneration (pimnetbench -fig all):
# the packet NoC figures and the Fig. 10/11 suite build split most of its
# CPU.
profile-regen: build
	$(GO) run ./cmd/pimnetbench -fig all -cpuprofile regen-cpu.pprof -memprofile regen-mem.pprof

# One full paper regeneration (pimnetbench -fig all): prints its wall time
# and fails unless stdout's sha256 equals bench/testdata/regen.sha256,
# which it reads and never writes.
regen-check:
	sh scripts/regen_check.sh

# Regenerate the golden corpora (compiled-plan traces, the NoC packet
# simulator's result corpus, the Fig. 13 and A4 tables, the CXL-PIM results, pimnetd's response
# bodies, and the digests of every generated workload input) after an
# intentional change; review the diff before committing.
golden:
	$(GO) test ./internal/core -run TestGoldenTraces -update
	$(GO) test ./internal/noc -run TestNocGolden -update
	$(GO) test ./internal/experiments -run TestNocFiguresGolden -update
	$(GO) test ./internal/cxlpim -run TestGoldenResults -update
	$(GO) test ./internal/serve -run TestGoldenResponses -update
	$(GO) test ./internal/workloads -run TestInputDigests -update

# Serve smoke test: boot pimnetd on an ephemeral port, hit every endpoint,
# and prove the SIGTERM drain exits 0 — the daemon's end-to-end contract.
serve-smoke:
	sh scripts/serve_smoke.sh

# Cluster smoke test: a coordinator over two real workers must serve sweeps
# byte-identical to a single node — including while one worker is killed
# mid-sweep (DESIGN.md §13).
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Store smoke test: a pimnetd restarted on its -store-dir must answer the
# same sweep byte-identically with zero plan compiles — every point a store
# read (DESIGN.md §14).
store-smoke:
	sh scripts/store_smoke.sh

# Crossover smoke test: the six-backend DIMM-vs-CXL study on a reduced grid
# must carry every backend and render byte-identically at any worker count.
crossover-smoke:
	sh scripts/crossover_smoke.sh

# Trace smoke test: a traced 256-DPU AllReduce must produce schema-valid
# Chrome trace_event JSON (the Perfetto-loadability contract of -trace-out).
trace-smoke:
	$(GO) run ./cmd/pimnetsim -trace-out /tmp/pimnet-trace-smoke.json \
		-pattern allreduce -dpus 256 > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/pimnet-trace-smoke.json
	@rm -f /tmp/pimnet-trace-smoke.json
