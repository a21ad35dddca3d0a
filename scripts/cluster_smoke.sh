#!/bin/sh
# Cluster smoke test: boot a coordinator over two real pimnetd workers on
# ephemeral ports, prove a distributed sweep is byte-identical to a
# single-node one, then kill a worker mid-sweep and prove the bytes still
# do not change — the DESIGN.md §13 invariant, checked against real
# processes and real HTTP rather than in-process test servers. `make check`
# runs it as `make cluster-smoke`.
set -eu

workdir=$(mktemp -d /tmp/pimnet-cluster-smoke.XXXXXX)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "cluster-smoke: FAIL: $*" >&2
    for log in "$workdir"/*.log; do
        echo "--- $log ---" >&2
        cat "$log" >&2 || true
    done
    exit 1
}

go build -o "$workdir/pimnetd" ./cmd/pimnetd
go build -o "$workdir/promcheck" ./cmd/promcheck

# start_daemon <name> <extra flags...>: boot one daemon on an ephemeral
# port, wait for its resolved address, and record it in $base.
start_daemon() {
    name=$1; shift
    "$workdir/pimnetd" -addr 127.0.0.1:0 -grace 10s "$@" > "$workdir/$name.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    base=""
    i=0
    while [ $i -lt 100 ]; do
        base=$(sed -n 's|^pimnetd: listening on \(http://.*\)$|\1|p' "$workdir/$name.log")
        [ -n "$base" ] && break
        kill -0 "$pid" 2>/dev/null || fail "$name exited before listening"
        i=$((i + 1))
        sleep 0.1
    done
    [ -n "$base" ] || fail "$name never reported its address"
    eval "${name}_pid=$pid"
    eval "${name}_base=\$base"
}

start_daemon worker1
start_daemon worker2
start_daemon coord -coordinator -workers "$worker1_base,$worker2_base" \
    -chunk-size 2 -chunk-retries 3 -probe-interval 500ms

grid='{"pattern": "allreduce", "dpus": [64, 256], "bytes_per_node": [4096, 16384, 32768]}'

# Reference bytes from a plain worker. Stats is wall-clock metadata and
# legitimately differs run to run; everything before it must not.
curl -fsS -X POST "$worker1_base/v1/sweep" -d "$grid" \
    | sed 's/,"stats":.*//' > "$workdir/single.json"
grep -q '"points":\[{' "$workdir/single.json" || fail "single-node sweep returned no points"

# Healthy fleet: coordinator bytes must match single node.
curl -fsS -X POST "$coord_base/v1/sweep" -d "$grid" \
    | sed 's/,"stats":.*//' > "$workdir/cluster.json"
cmp -s "$workdir/single.json" "$workdir/cluster.json" \
    || fail "healthy-fleet sweep differs from single node: $(cat "$workdir/cluster.json")"

# Kill worker2 mid-sweep: fire the sweep in the background, take the worker
# down while chunks are in flight, and require the same bytes anyway
# (retries re-place its chunks; the coordinator degrades locally if needed).
curl -fsS -X POST "$coord_base/v1/sweep" -d "$grid" \
    | sed 's/,"stats":.*//' > "$workdir/chaos.json" &
curl_pid=$!
sleep 0.2
kill -KILL "$worker2_pid" 2>/dev/null || true
wait "$curl_pid" || fail "sweep failed while a worker was killed"
cmp -s "$workdir/single.json" "$workdir/chaos.json" \
    || fail "worker-loss sweep differs from single node: $(cat "$workdir/chaos.json")"

# The coordinator's /metrics must be valid Prometheus exposition carrying
# the pimnetd_cluster_* families.
curl -fsS "$coord_base/metrics" > "$workdir/metrics.prom" || fail "metrics fetch"
grep -q '^pimnetd_cluster_' "$workdir/metrics.prom" || fail "metrics missing the pimnetd_cluster_ families"
"$workdir/promcheck" -require \
    pimnetd_cluster_healthy_workers,pimnetd_cluster_chunks_total,pimnetd_cluster_worker_state \
    "$workdir/metrics.prom" \
    || fail "coordinator metrics is not valid Prometheus exposition (see promcheck output)"

# SIGTERM must drain the coordinator cleanly, probe loop included.
kill -TERM "$coord_pid"
rc=0
wait "$coord_pid" || rc=$?
[ "$rc" = "0" ] || fail "coordinator exited $rc after SIGTERM"
grep -q "drained, exiting" "$workdir/coord.log" || fail "coordinator did not report a clean drain"

echo "cluster-smoke: OK (coordinator $coord_base over $worker1_base, $worker2_base)"
