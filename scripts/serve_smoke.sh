#!/bin/sh
# Serve smoke test: prove a SIGTERM sent the moment pimnetd prints its
# address still drains cleanly, then boot pimnetd on an ephemeral port,
# exercise every endpoint once — synchronous, async jobs with SSE, and
# metrics — and prove the SIGTERM drain exits cleanly. This is the
# end-to-end check that the daemon wiring (listener, handlers, job layer,
# shutdown path) works outside the Go test harness; `make check` runs it.
set -eu

workdir=$(mktemp -d /tmp/pimnet-serve-smoke.XXXXXX)
daemon_pid=""
early_pid=""
cleanup() {
    [ -n "$early_pid" ] && kill "$early_pid" 2>/dev/null || true
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- pimnetd log ---" >&2
    cat "$workdir/pimnetd.log" >&2 || true
    exit 1
}

go build -o "$workdir/pimnetd" ./cmd/pimnetd
go build -o "$workdir/promcheck" ./cmd/promcheck

# An early SIGTERM, sent as soon as the address line appears, must drain
# and exit 0: the signal handler is installed before the listener exists.
"$workdir/pimnetd" -addr 127.0.0.1:0 -grace 10s > "$workdir/early.log" 2>&1 &
early_pid=$!
i=0
until grep -q '^pimnetd: listening on ' "$workdir/early.log"; do
    kill -0 "$early_pid" 2>/dev/null || fail "early daemon exited before listening: $(cat "$workdir/early.log")"
    i=$((i + 1))
    [ $i -lt 1000 ] || fail "early daemon never reported its address"
    sleep 0.01
done
kill -TERM "$early_pid"
rc=0
wait "$early_pid" || rc=$?
early_pid=""
[ "$rc" = "0" ] || fail "daemon exited $rc after an early SIGTERM: $(cat "$workdir/early.log")"
grep -q "drained, exiting" "$workdir/early.log" \
    || fail "daemon did not drain after an early SIGTERM: $(cat "$workdir/early.log")"

"$workdir/pimnetd" -addr 127.0.0.1:0 -grace 10s \
    -store-dir "$workdir/store" -tenant-quotas 'acme=2' \
    > "$workdir/pimnetd.log" 2>&1 &
daemon_pid=$!

# The daemon prints its resolved ephemeral address on startup.
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

curl -fsS "$base/healthz" | grep -q '"status":"ok"' \
    || fail "healthz not ok"

curl -fsS -X POST "$base/v1/simulate" \
    -d '{"pattern": "allreduce", "bytes_per_node": 32768, "dpus": 256}' \
    | grep -q '"time_ps":' \
    || fail "simulate returned no latency"

curl -fsS -X POST "$base/v1/sweep" \
    -d '{"pattern": "allreduce", "dpus": [64, 256], "bytes_per_node": [4096, 32768]}' \
    | grep -q '"points":\[{' \
    || fail "sweep returned no points"

curl -fsS -X POST "$base/v1/noc/sweep" \
    -d '{"ranks": 2, "chips": 4, "banks": 8, "patterns": ["hotspot", "tornado"], "steps": 2}' \
    | grep -q '"pattern":"hotspot"' \
    || fail "noc sweep returned no pattern points"

# --- Async job layer -------------------------------------------------------

# A simulate job's result must be byte-identical to the synchronous
# endpoint's response for the same payload (simulate bodies are fully
# deterministic).
sim_payload='{"pattern": "allreduce", "bytes_per_node": 4096, "dpus": 64}'
curl -fsS -X POST "$base/v1/simulate" -d "$sim_payload" > "$workdir/sync-sim.json" \
    || fail "sync simulate for byte comparison"
job_id=$(curl -fsS -X POST "$base/v1/jobs" \
    -d "{\"kind\": \"simulate\", \"tenant\": \"acme\", \"request\": $sim_payload}" \
    | sed -n 's|.*"id":"\([^"]*\)".*|\1|p')
[ -n "$job_id" ] || fail "job submission returned no id"

i=0
while [ $i -lt 100 ]; do
    state=$(curl -fsS "$base/v1/jobs/$job_id" | sed -n 's|.*"status":"\([^"]*\)".*|\1|p')
    [ "$state" = "done" ] && break
    [ "$state" = "failed" ] && fail "simulate job failed"
    i=$((i + 1))
    sleep 0.1
done
[ "$state" = "done" ] || fail "simulate job never finished (last state: $state)"

curl -fsS "$base/v1/jobs/$job_id/result" > "$workdir/job-sim.json" \
    || fail "job result fetch"
cmp -s "$workdir/sync-sim.json" "$workdir/job-sim.json" \
    || fail "simulate job result diverges from synchronous bytes"

# A sweep job, followed live over SSE: the stream must carry status,
# progress, and done events, and the result (minus the wall-clock stats
# member) must match the synchronous sweep byte for byte.
sweep_payload='{"pattern": "allreduce", "dpus": [8, 64], "bytes_per_node": [4096, 16384]}'
curl -fsS -X POST "$base/v1/sweep" -d "$sweep_payload" > "$workdir/sync-sweep.json" \
    || fail "sync sweep for byte comparison"
sweep_job=$(curl -fsS -X POST "$base/v1/jobs" \
    -d "{\"kind\": \"sweep\", \"request\": $sweep_payload}" \
    | sed -n 's|.*"id":"\([^"]*\)".*|\1|p')
[ -n "$sweep_job" ] || fail "sweep job submission returned no id"

curl -sN --max-time 30 "$base/v1/jobs/$sweep_job/events" > "$workdir/sse.log" || true
grep -q '^event: status$' "$workdir/sse.log" || fail "SSE stream carried no status event"
grep -q '^event: done$' "$workdir/sse.log" || fail "SSE stream carried no done event"
grep -q '"status":"done"' "$workdir/sse.log" || fail "SSE done event does not report done"

curl -fsS "$base/v1/jobs/$sweep_job/result" > "$workdir/job-sweep.json" \
    || fail "sweep job result fetch"
# stats is wall-clock metadata and serializes last; everything before it is
# the deterministic section.
sed 's/,"stats":.*//' "$workdir/sync-sweep.json" > "$workdir/sync-sweep.det"
sed 's/,"stats":.*//' "$workdir/job-sweep.json" > "$workdir/job-sweep.det"
cmp -s "$workdir/sync-sweep.det" "$workdir/job-sweep.det" \
    || fail "sweep job result diverges from synchronous bytes (stats excluded)"

# A zero-length poll of an unknown job must be an enveloped 404.
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs/j-999999")
[ "$code" = "404" ] || fail "unknown job got $code, want 404"

# --- Metrics ---------------------------------------------------------------

# /metrics must be valid Prometheus exposition carrying the request,
# plan-cache, coalescing, store, job, and per-tenant families.
curl -fsS "$base/metrics" > "$workdir/metrics.prom" || fail "metrics fetch"
"$workdir/promcheck" -require \
    pimnetd_requests_total,pimnetd_responses_total,pimnetd_rejected_total,pimnetd_coalesced_total,pimnetd_request_duration_seconds,pimnetd_plan_cache_hits_total,pimnetd_plan_cache_hit_rate,pimnetd_sweep_points_total,pimnetd_store_hits_total,pimnetd_store_entries,pimnetd_jobs_queued,pimnetd_jobs_running,pimnetd_jobs_tracked,pimnetd_tenant_jobs_submitted_total,pimnetd_tenant_jobs_finished_total \
    "$workdir/metrics.prom" \
    || fail "metrics is not valid Prometheus exposition (see promcheck output)"

# The deprecated /metrics.json endpoint is gone: it must answer an
# enveloped 404, not a snapshot.
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/metrics.json")
[ "$code" = "404" ] || fail "removed /metrics.json got $code, want 404"
curl -s "$base/metrics.json" | grep -q '"error":' \
    || fail "/metrics.json 404 is not the unified error envelope"

# A malformed request must be a structured 400, not a connection error.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/simulate" \
    -d '{"pattern": "bogus"}')
[ "$code" = "400" ] || fail "malformed request got $code, want 400"
curl -s -X POST "$base/v1/simulate" -d '{"pattern": "bogus"}' \
    | grep -q '"error":{"code":"bad_request"' \
    || fail "malformed request body is not the unified error envelope"

# SIGTERM must drain and exit 0.
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" = "0" ] || fail "daemon exited $rc after SIGTERM"
grep -q "drained, exiting" "$workdir/pimnetd.log" || fail "daemon did not report a clean drain"

echo "serve-smoke: OK ($base)"
