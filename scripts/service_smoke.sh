#!/usr/bin/env bash
# End-to-end smoke test of the resident what-if server (campaign_server):
# start on an ephemeral loopback port, probe /healthz, ask the same
# what-if twice (the second answer must be a byte-identical cache hit),
# check the cache counters and alert gauges on /metrics, exercise the
# request-observability surface (echoed request ids, /v1/status
# fields, a well-formed JSON-lines access log with slow-request phase
# spans), then shut down gracefully and require a clean exit. A second
# phase starts the server with --cache-dir, kills it with SIGKILL,
# restarts it on the same directory, and requires the warm answer from
# disk plus an incremental resume from the spilled checkpoint. A third
# phase holds a silent connection open across POST /v1/shutdown and
# requires the server to drop it and exit within its I/O bound.
#
# Usage: scripts/service_smoke.sh [path/to/campaign_server]
# (defaults to build/examples/campaign_server). CI runs this against
# both the regular and the TSan build, and uploads the access log
# (copied to $ACCESS_LOG_ARTIFACT, default service-access.log) as a
# build artifact.
set -euo pipefail

SERVER=${1:-build/examples/campaign_server}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"; [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true' EXIT

fail() { echo "service_smoke: FAIL: $*" >&2; exit 1; }

[ -x "$SERVER" ] || fail "no server binary at $SERVER"

# Wait for the listener (the port file is written once bound).
wait_for_port() {
    for _ in $(seq 1 100); do
        [ -s "$WORK/port" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null \
            || fail "server died during startup"
        sleep 0.1
    done
    [ -s "$WORK/port" ] || fail "port file never appeared"
    PORT=$(cat "$WORK/port")
    BASE="http://127.0.0.1:$PORT"
}

# --slow-ms 0 marks every request slow, so each access-log line also
# carries its full phase spans (the most detailed log shape).
"$SERVER" --port 0 --port-file "$WORK/port" --cache-entries 32 \
    --access-log "$WORK/access.log" --slow-ms 0 &
SERVER_PID=$!
wait_for_port
echo "service_smoke: server up on port $PORT (pid $SERVER_PID)"

# Liveness.
curl -sSf "$BASE/healthz" | grep -q '"status":"ok"' \
    || fail "healthz not ok"

# The same what-if twice: first a miss, then a byte-identical hit.
BODY='{"config":"LargeEUPS","trials":40,"seed":2014,
       "technique":{"kind":"throttle_sleep","pstate":5,
                    "serve_for_min":10.0,"low_power":true}}'
curl -sSf -D "$WORK/h1" -o "$WORK/r1" -XPOST "$BASE/v1/whatif" -d "$BODY"
curl -sSf -D "$WORK/h2" -o "$WORK/r2" -XPOST "$BASE/v1/whatif" -d "$BODY"
grep -qi '^x-bpsim-cache: miss' "$WORK/h1" || fail "first query not a miss"
grep -qi '^x-bpsim-cache: hit' "$WORK/h2" || fail "second query not a hit"
cmp -s "$WORK/r1" "$WORK/r2" || fail "cached reply differs from computed"
grep -q '"downtime_min"' "$WORK/r1" || fail "campaign summary missing"
echo "service_smoke: repeat query served from cache, bodies identical"

# A malformed body must 400, not crash.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -XPOST "$BASE/v1/whatif" \
       -d '{nope')
[ "$CODE" = 400 ] || fail "malformed body gave $CODE, want 400"

# An out-of-range field is refused up front, naming the field, and the
# server stays up.
CODE=$(curl -s -o "$WORK/range" -w '%{http_code}' -XPOST \
       "$BASE/v1/whatif" \
       -d '{"config":"LargeEUPS","technique":{"kind":"throttle","pstate":99}}')
[ "$CODE" = 400 ] || fail "pstate 99 gave $CODE, want 400"
grep -q 'pstate' "$WORK/range" || fail "400 body does not name pstate"
curl -sSf "$BASE/healthz" | grep -q '"status":"ok"' \
    || fail "healthz not ok after an out-of-range what-if"
echo "service_smoke: out-of-range what-if refused with 400, server up"

# Alert rules report on both surfaces.
curl -sSf "$BASE/v1/alerts" | grep -q '"rule":"ups_charge_low"' \
    || fail "alerts JSON missing rule book"
curl -sSf "$BASE/metrics" > "$WORK/metrics"
grep -q '^bpsim_service_cache_hits_total{[^}]*} 1$' "$WORK/metrics" \
    || fail "metrics missing the cache hit"
grep -q '^bpsim_alert_ups_charge_low_state' "$WORK/metrics" \
    || fail "metrics missing alert gauges"
grep -q '^# EOF' "$WORK/metrics" || fail "metrics not OpenMetrics-terminated"
echo "service_smoke: metrics expose cache counters and alert gauges"

# Request observability: every response carries a request id, and a
# client-supplied id is echoed back verbatim.
grep -qi '^x-bpsim-request-id:' "$WORK/h1" \
    || fail "what-if response missing X-Bpsim-Request-Id"
ECHOED=$(curl -sSf -D - -o /dev/null -H 'X-Bpsim-Request-Id: smoke-42' \
         "$BASE/healthz" | tr -d '\r' \
         | awk 'tolower($1) == "x-bpsim-request-id:" {print $2}')
[ "$ECHOED" = smoke-42 ] \
    || fail "client request id not echoed (got \"$ECHOED\")"

# The request latency histograms ride /metrics with label sets.
grep -q '^bpsim_service_request_seconds_bucket{endpoint="whatif"' \
    "$WORK/metrics" || fail "metrics missing request latency histogram"

# /v1/status: liveness plus build, uptime, flight table and caches.
curl -sSf "$BASE/v1/status" > "$WORK/status"
grep -q '"status":"ok"' "$WORK/status" || fail "status not ok"
grep -q '"buildId":"' "$WORK/status" || fail "status missing buildId"
grep -q '"uptime_seconds":' "$WORK/status" \
    || fail "status missing uptime"
grep -q '"flight_depth":0' "$WORK/status" \
    || fail "status shows stuck in-flight work"
grep -q '"results":{"entries":1' "$WORK/status" \
    || fail "status missing the cached result"
grep -q '"observed":' "$WORK/status" \
    || fail "status missing request totals"
echo "service_smoke: /v1/status reports build, caches and flight table"
grep -q '"history":{"enabled":true' "$WORK/status" \
    || fail "status missing the history block"

# Metrics history: the sampler ticks every second by default, so by
# now /v1/series must know the core series and answer a named query
# with the tier list and a points array.
sleep 1.2
curl -sSf "$BASE/v1/series" > "$WORK/series"
grep -q '"enabled":true' "$WORK/series" || fail "series not enabled"
grep -q '"tiers":\[{"tier":0' "$WORK/series" \
    || fail "series missing tier metadata"
grep -q '"service.cache.results.entries"' "$WORK/series" \
    || fail "series names missing cache depth gauge"
curl -sSf "$BASE/v1/series?name=service.cache.results.entries&tier=0" \
    > "$WORK/series1"
grep -q '"found":true' "$WORK/series1" \
    || fail "named series query found nothing"
grep -q '"points":\[\[' "$WORK/series1" \
    || fail "named series query returned no points"
curl -sSf "$BASE/v1/alerts/history" | grep -q '"events":\[' \
    || fail "alert history endpoint malformed"
echo "service_smoke: /v1/series serves sampled history"

# The dashboard must be non-empty, self-contained HTML: no external
# links, scripts, styles or images — it has to render air-gapped.
curl -sSf -D "$WORK/hdash" "$BASE/dashboard" > "$WORK/dashboard.html"
[ -s "$WORK/dashboard.html" ] || fail "dashboard empty"
grep -q '<!DOCTYPE html>' "$WORK/dashboard.html" \
    || fail "dashboard is not HTML"
grep -qi '^content-type: text/html; charset=utf-8' "$WORK/hdash" \
    || fail "dashboard content type wrong"
if grep -qE 'https?://|src=|href=|@import' "$WORK/dashboard.html"; then
    fail "dashboard references external resources"
fi
grep -qi '^cache-control: no-store' "$WORK/hdash" \
    || fail "dashboard response missing Cache-Control: no-store"
grep -qi '^cache-control: no-store' "$WORK/h1" \
    || fail "what-if response missing Cache-Control: no-store"
cp "$WORK/dashboard.html" "${DASHBOARD_ARTIFACT:-service-dashboard.html}"
echo "service_smoke: dashboard self-contained" \
     "(kept as ${DASHBOARD_ARTIFACT:-service-dashboard.html})"

# The access log: one JSON object per line, every line well-formed,
# what-if hit + miss both present, and the slow shape carries spans.
[ -s "$WORK/access.log" ] || fail "access log empty or missing"
if command -v python3 > /dev/null 2>&1; then
    python3 - "$WORK/access.log" <<'PYEOF' || fail "access log malformed"
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty access log"
for l in lines:
    rec = json.loads(l)
    for k in ("ts_us", "id", "endpoint", "status", "total_us",
              "phases"):
        assert k in rec, "missing %s in: %s" % (k, l)
print("service_smoke: %d access-log records well-formed" % len(lines))
PYEOF
fi
grep -q '"endpoint":"whatif"' "$WORK/access.log" \
    || fail "access log missing the what-if requests"
grep -q '"cache":"hit"' "$WORK/access.log" \
    || fail "access log missing the cache hit"
grep -q '"cache":"miss"' "$WORK/access.log" \
    || fail "access log missing the cache miss"
grep -q '"slow":true' "$WORK/access.log" \
    || fail "access log has no slow record despite --slow-ms 0"
grep -q '"spans":\[{"phase":' "$WORK/access.log" \
    || fail "slow access-log record carries no phase spans"
cp "$WORK/access.log" "${ACCESS_LOG_ARTIFACT:-service-access.log}"
echo "service_smoke: access log validated" \
     "(kept as ${ACCESS_LOG_ARTIFACT:-service-access.log})"

# Graceful shutdown: POST, then the process must exit 0 on its own.
curl -sSf -XPOST "$BASE/v1/shutdown" | grep -q 'shutting down' \
    || fail "shutdown endpoint"
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=
[ "$RC" = 0 ] || fail "server exited $RC after shutdown"
echo "service_smoke: graceful shutdown clean"

# --- Phase 2: kill-and-restart warm-cache round trip -----------------
# The persistent cache must survive an unclean death: SIGKILL the
# server mid-life, restart it on the same --cache-dir, and the same
# question must come back byte-identical from disk without a campaign.
rm -f "$WORK/port"
"$SERVER" --port 0 --port-file "$WORK/port" --cache-dir "$WORK/cache" &
SERVER_PID=$!
wait_for_port
curl -sSf -D "$WORK/h3" -o "$WORK/r3" -XPOST "$BASE/v1/whatif" -d "$BODY"
grep -qi '^x-bpsim-cache: miss' "$WORK/h3" \
    || fail "cold persistent query not a miss"
kill -9 "$SERVER_PID" 2>/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
echo "service_smoke: server killed (SIGKILL), restarting on same cache dir"

rm -f "$WORK/port"
"$SERVER" --port 0 --port-file "$WORK/port" --cache-dir "$WORK/cache" &
SERVER_PID=$!
wait_for_port
curl -sSf -D "$WORK/h4" -o "$WORK/r4" -XPOST "$BASE/v1/whatif" -d "$BODY"
grep -qi '^x-bpsim-cache: hit' "$WORK/h4" \
    || fail "warm restart query not a hit"
grep -qi '^x-bpsim-cache-tier: disk' "$WORK/h4" \
    || fail "warm restart hit not served from disk"
cmp -s "$WORK/r3" "$WORK/r4" \
    || fail "disk-served reply differs from pre-kill reply"
echo "service_smoke: warm restart served the pre-kill answer from disk"

# Incremental reuse across the restart: a larger budget for the same
# scenario resumes from the spilled 40-trial checkpoint.
BIG_BODY=${BODY/\"trials\":40/\"trials\":80}
curl -sSf -D "$WORK/h5" -o "$WORK/r5" -XPOST "$BASE/v1/whatif" \
    -d "$BIG_BODY"
grep -qi '^x-bpsim-cache: miss' "$WORK/h5" \
    || fail "bigger budget unexpectedly cached"
grep -qi '^x-bpsim-resumed-from: 40' "$WORK/h5" \
    || fail "bigger budget did not resume from the spilled checkpoint"
echo "service_smoke: larger budget resumed from trial 40 after restart"

# The dashboard also serves from the restarted process (second
# artifact: proves the page carries no first-boot-only state).
curl -sSf "$BASE/dashboard" > "$WORK/dashboard2.html"
grep -q '<!DOCTYPE html>' "$WORK/dashboard2.html" \
    || fail "restarted dashboard is not HTML"
cp "$WORK/dashboard2.html" \
    "${DASHBOARD_RESTART_ARTIFACT:-service-dashboard-restart.html}"

curl -sSf -XPOST "$BASE/v1/shutdown" > /dev/null \
    || fail "second shutdown endpoint"
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=
[ "$RC" = 0 ] || fail "restarted server exited $RC after shutdown"

# --- Phase 3: a silent peer cannot hold the server up ---------------
# Open a connection that never sends a byte, then ask for shutdown:
# the per-connection I/O bound (5 s by default) must drop the peer so
# the process exits on its own within the bound plus a margin.
IO_BOUND_S=5
MARGIN_S=5
rm -f "$WORK/port"
"$SERVER" --port 0 --port-file "$WORK/port" &
SERVER_PID=$!
wait_for_port
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
curl -sSf -XPOST "$BASE/v1/shutdown" > /dev/null \
    || fail "shutdown endpoint with a silent peer open"
START=$(date +%s)
while kill -0 "$SERVER_PID" 2>/dev/null; do
    [ $(( $(date +%s) - START )) -le $(( IO_BOUND_S + MARGIN_S )) ] \
        || fail "server still running $(( IO_BOUND_S + MARGIN_S )) s" \
                "after shutdown with a silent peer open"
    sleep 0.2
done
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=
exec 3>&-
[ "$RC" = 0 ] || fail "server exited $RC after dropping the silent peer"
echo "service_smoke: silent peer dropped, server exited" \
     "in $(( $(date +%s) - START )) s"
echo "service_smoke: PASS"
