#!/bin/sh
# Store smoke test: run pimnetd with a persistent store, sweep, SIGTERM,
# restart on the same directory, and re-issue the sweep. The warm daemon
# must return a byte-identical result payload while compiling zero plans —
# every point is a store read — and /metrics must show exactly that. This is
# the end-to-end warm-restart contract of -store-dir; `make check` runs it.
set -eu

workdir=$(mktemp -d /tmp/pimnet-store-smoke.XXXXXX)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "store-smoke: FAIL: $*" >&2
    echo "--- pimnetd log ---" >&2
    cat "$workdir/pimnetd.log" >&2 || true
    exit 1
}

go build -o "$workdir/pimnetd" ./cmd/pimnetd

# start_daemon boots pimnetd with the shared store dir and waits for its
# ephemeral address; the resolved base URL lands in $base.
start_daemon() {
    "$workdir/pimnetd" -addr 127.0.0.1:0 -grace 10s \
        -store-dir "$workdir/store" -store-max-bytes 67108864 \
        > "$workdir/pimnetd.log" 2>&1 &
    daemon_pid=$!
    base=""
    i=0
    while [ $i -lt 100 ]; do
        base=$(sed -n 's|^pimnetd: listening on \(http://.*\)$|\1|p' "$workdir/pimnetd.log")
        [ -n "$base" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon exited before listening"
        i=$((i + 1))
        sleep 0.1
    done
    [ -n "$base" ] || fail "daemon never reported its address"
}

# stop_daemon proves the SIGTERM drain exits 0.
stop_daemon() {
    kill -TERM "$daemon_pid"
    rc=0
    wait "$daemon_pid" || rc=$?
    daemon_pid=""
    [ "$rc" = "0" ] || fail "daemon exited $rc after SIGTERM"
}

grid='{"pattern": "allreduce", "dpus": [64, 256], "bytes_per_node": [4096, 32768]}'
points=4

# Cold run: an empty store directory fills up. Stats is wall-clock metadata
# and legitimately differs run to run; everything before it must not.
start_daemon
cold_start=$(date +%s%N)
curl -fsS -X POST "$base/v1/sweep" -d "$grid" \
    | sed 's/,"stats":.*//' > "$workdir/cold.json"
cold_ms=$(( ($(date +%s%N) - cold_start) / 1000000 ))
grep -q '"points":\[{' "$workdir/cold.json" || fail "cold sweep returned no points"
stop_daemon

# Warm restart on the same directory: the daemon must report a non-empty
# store at boot and answer the identical sweep from it.
start_daemon
grep -q 'pimnetd: store .* entries' "$workdir/pimnetd.log" \
    || fail "warm daemon did not report its store"
grep -q 'pimnetd: store .* (0 entries' "$workdir/pimnetd.log" \
    && fail "warm daemon opened an empty store (purged? fingerprint unstable?)"
warm_start=$(date +%s%N)
curl -fsS -X POST "$base/v1/sweep" -d "$grid" \
    | sed 's/,"stats":.*//' > "$workdir/warm.json"
warm_ms=$(( ($(date +%s%N) - warm_start) / 1000000 ))

cmp -s "$workdir/cold.json" "$workdir/warm.json" \
    || fail "warm restart changed bytes: $(cat "$workdir/warm.json")"

# The warm run's /metrics (Prometheus text) must prove zero plan compiles
# (plan-cache misses == 0) and that every grid point was a store read
# (store hits == points).
curl -fsS "$base/metrics" > "$workdir/metrics.prom"
grep -q '^pimnetd_plan_cache_misses_total 0$' "$workdir/metrics.prom" \
    || fail "warm daemon compiled plans: $(grep '^pimnetd_plan_cache' "$workdir/metrics.prom")"
grep -q "^pimnetd_store_hits_total{namespace=\"results\"} $points\$" "$workdir/metrics.prom" \
    || fail "store results hits != $points: $(grep '^pimnetd_store_hits' "$workdir/metrics.prom")"
grep -q '^pimnetd_store_corrupt_total{namespace="results"} 0$' "$workdir/metrics.prom" \
    || fail "store rejected blobs on a clean restart: $(grep '^pimnetd_store_corrupt' "$workdir/metrics.prom")"

# The store holds results only: no plans series in /metrics, no plans/ tree
# on disk.
grep -q 'namespace="plans"' "$workdir/metrics.prom" \
    && fail "metrics report a plans namespace: $(grep 'namespace="plans"' "$workdir/metrics.prom")"
[ -e "$workdir/store/plans" ] && fail "store directory has a plans/ tree"

stop_daemon
grep -q "drained, exiting" "$workdir/pimnetd.log" || fail "daemon did not report a clean drain"

echo "store-smoke: OK (cold ${cold_ms}ms vs warm ${warm_ms}ms; bytes identical, 0 compiles, $points store hits)"
