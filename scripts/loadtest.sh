#!/bin/sh
# End-to-end load test of the network serving subsystem: boots reduxd on a
# loopback port, drives LOADTEST_JOBS (default 2000) Zipf-skewed jobs
# through the pooled client via `reduxserve -remote -json`, drains the
# server, and checks the machine-readable report — every job must succeed
# and results must verify against the sequential reference. The /metrics
# scrape must also show pattern-handle hits: repeats of a hot loop travel
# as references, not re-shipped patterns; and, in this mode and SESSIONS
# mode, jobs the daemon's read loop served inline (hot repeats answered
# from their resident total, session deltas).
#
# Set GATEWAY=N (N >= 1) to test the cluster tier instead: N reduxd
# backends are booted behind a reduxgw gateway and the same stream is
# driven through the gateway. Each backend's /metrics is scraped and the
# summed redux_server_inline_total must be positive — pattern-affinity
# routing lands hot repeats on the backend holding their resident total.
#
# Set SESSIONS=N (N >= 1) to drive N concurrent streaming sessions
# (OPEN_SESSION + SUBMIT_DELTA over workloads.DeltaStream) instead of the
# one-shot Zipf stream: every session's rolling result is shadow-verified
# by the driver against a full recompute of a mirrored loop, and the
# report must show every delta batch served through the session path.
# Sessions are daemon-scoped, so SESSIONS combines with RACE but not
# with GATEWAY.
#
# Set TENANTS=N (N >= 2) to drive the multi-tenant QoS path instead:
# reduxd boots with N tenants at descending weights, the last one behind
# a tight token bucket (rate 200/s, burst 16) plus an in-flight quota of
# 1 (so the BUSY path triggers on concurrency alone, independent of how
# fast the machine drains the bucket — -race builds run several times
# slower), and reduxserve offers each tenant its weight-proportional
# share of the jobs under its own HELLO identity. The report must show every tenant's server-side attribution
# equal to its offered share, and the rate-limited tenant must have drawn
# BUSY rejections that surface in /metrics. Tenants are daemon-scoped
# (the gateway forwards under the default identity), so TENANTS combines
# with RACE but not with GATEWAY or SESSIONS.
#
# Set RACE=1 to build the binaries with the race detector (CI does).
set -eu

cd "$(dirname "$0")/.."

jobs="${LOADTEST_JOBS:-2000}"
clients="${LOADTEST_CLIENTS:-16}"
gateway="${GATEWAY:-0}"
sessions="${SESSIONS:-0}"
tenants="${TENANTS:-0}"
if [ "$sessions" -gt 0 ] && [ "$gateway" -gt 0 ]; then
    echo "loadtest: SESSIONS and GATEWAY are exclusive (the gateway does not forward sessions)" >&2
    exit 2
fi
if [ "$tenants" -gt 0 ] && { [ "$gateway" -gt 0 ] || [ "$sessions" -gt 0 ]; }; then
    echo "loadtest: TENANTS is exclusive with GATEWAY and SESSIONS (tenants are daemon-scoped)" >&2
    exit 2
fi

# The generated tenant config: descending weights, the last tenant capped
# by a tight token bucket plus an in-flight quota of 1 so the BUSY path
# is exercised for real at any machine speed.
tspec=""
tenant_flags=""
if [ "$tenants" -gt 0 ]; then
    i=1
    while [ "$i" -le "$tenants" ]; do
        w=$((tenants - i + 1))
        if [ "$i" -eq "$tenants" ]; then
            tspec="$tspec,capped:$w:200:16:1"
        else
            tspec="$tspec,t$i:$w"
        fi
        i=$((i + 1))
    done
    tspec=${tspec#,}
    tenant_flags="-tenants $tspec"
fi
build_flags=""
[ -n "${RACE:-}" ] && build_flags="-race"

work=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do
        if kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$work"
}
trap cleanup EXIT

go build $build_flags -o "$work/reduxd" ./cmd/reduxd
go build $build_flags -o "$work/reduxserve" ./cmd/reduxserve
[ "$gateway" -gt 0 ] && go build $build_flags -o "$work/reduxgw" ./cmd/reduxgw

# wait_addr LOGFILE PID: scrape "listening on <addr>" from a daemon's log
# (both reduxd and reduxgw print it once their listener is up). The debug
# listener prints its own "debug listening on" line, excluded here and
# scraped by wait_debug below.
wait_addr() {
    log="$1"; pid="$2"; addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(awk '/listening on/ && !/debug/ {print $4; exit}' "$log" 2>/dev/null || true)
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "loadtest: $(basename "$log" .log) exited before listening:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo "loadtest: $(basename "$log" .log) never reported its address" >&2
        cat "$log" >&2
        exit 1
    fi
}

# wait_debug LOGFILE: scrape "debug listening on <addr>" (printed right
# after the main listener line, so no liveness loop is needed by then).
wait_debug() {
    i=0; dbg=""
    while [ $i -lt 100 ]; do
        dbg=$(awk '/debug listening on/ {print $NF; exit}' "$1" 2>/dev/null || true)
        [ -n "$dbg" ] && return
        sleep 0.1
        i=$((i + 1))
    done
    echo "loadtest: $(basename "$1" .log) never reported its debug address" >&2
    exit 1
}

# Every daemon gets a debug listener and traces every job (-trace-slow
# negative), so the run doubles as the end-to-end check of the
# observability surface: /metrics, /tracez and pprof are curled below.
backend_addrs=""
backend_dbgs=""
n=0
while [ $n -lt "$gateway" ] || { [ "$gateway" -eq 0 ] && [ $n -lt 1 ]; }; do
    "$work/reduxd" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -trace-slow -1ns $tenant_flags > "$work/reduxd$n.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    wait_addr "$work/reduxd$n.log" "$pid"
    wait_debug "$work/reduxd$n.log"
    backend_addrs="$backend_addrs,$addr"
    backend_dbgs="$backend_dbgs $dbg"
    n=$((n + 1))
done
backend_addrs=${backend_addrs#,}

if [ "$gateway" -gt 0 ]; then
    "$work/reduxgw" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -trace-slow -1ns \
        -backends "$backend_addrs" > "$work/reduxgw.log" 2>&1 &
    gw_pid=$!
    pids="$pids $gw_pid"
    wait_addr "$work/reduxgw.log" "$gw_pid"
    wait_debug "$work/reduxgw.log"
    target="$addr"
    front_dbg="$dbg"
    echo "loadtest: reduxgw on $target fronting $gateway backends ($backend_addrs), driving $jobs jobs from $clients clients"
else
    target="$backend_addrs"
    front_dbg="${backend_dbgs# }"
    if [ "$sessions" -gt 0 ]; then
        echo "loadtest: reduxd on $target, streaming $jobs delta batches through $sessions sessions"
    elif [ "$tenants" -gt 0 ]; then
        echo "loadtest: reduxd on $target, driving $jobs jobs from $clients clients as $tenants tenants ($tspec)"
    else
        echo "loadtest: reduxd on $target, driving $jobs jobs from $clients clients"
    fi
fi

stream_flags="-zipf"
[ "$sessions" -gt 0 ] && stream_flags="-sessions $sessions"
[ "$tenants" -gt 0 ] && stream_flags="$tenant_flags"
"$work/reduxserve" -remote "$target" -jobs "$jobs" -clients "$clients" \
    $stream_flags -scale 0.3 -json > "$work/report.json" &
serve_pid=$!

# Mid-run observability: scrape /metrics and take a 1-second CPU profile
# while traffic is flowing (the profile outlives short runs — the daemon
# stays up until the drain below, so the curls can never miss).
curl -fsS "http://$front_dbg/metrics" > "$work/metrics_midrun.txt" \
    || { echo "loadtest: FAIL: mid-run /metrics scrape" >&2; exit 1; }
curl -fsS -o "$work/profile.pb.gz" "http://$front_dbg/debug/pprof/profile?seconds=1" \
    || { echo "loadtest: FAIL: mid-run pprof profile" >&2; exit 1; }
[ -s "$work/profile.pb.gz" ] || { echo "loadtest: FAIL: empty pprof profile" >&2; exit 1; }

wait "$serve_pid" || { echo "loadtest: reduxserve failed" >&2; exit 1; }

# Post-run, pre-drain: the rings are frozen. Lint the full /metrics page
# and check cross-tier trace stitching on the real wire path.
curl -fsS "http://$front_dbg/metrics" > "$work/metrics.txt"
scripts/metrics_lint.sh "$work/metrics.txt"

if [ "$sessions" -eq 0 ] && [ "$tenants" -eq 0 ]; then
    # The Zipf stream repeats its hot loops, so after each loop's first
    # full SUBMIT the client must have gone over to pattern handles: the
    # front tier (the daemon, or the gateway's own front door) has to
    # show reference hits. Zero means every job re-shipped its pattern.
    grep -Eq '^redux_server_pattern_handle_hits_total [1-9]' "$work/metrics.txt" \
        || { echo "loadtest: FAIL: no pattern-handle hits in /metrics (every SUBMIT re-shipped its loop)" >&2; exit 1; }
    echo "loadtest: $(grep -E '^redux_server_pattern_handle_(hits|gone)_total ' "$work/metrics.txt" | tr '\n' ' ')"
fi

if [ "$gateway" -eq 0 ] && [ "$tenants" -eq 0 ]; then
    # Hot repeats of a Zipf loop and session deltas are answered on the
    # daemon's read loop, with no engine queue or waiter goroutine: the
    # counter must have moved. (A gateway's front door holds no resident
    # state, so it never serves inline.)
    grep -Eq '^redux_server_inline_total [1-9]' "$work/metrics.txt" \
        || { echo "loadtest: FAIL: no job served inline in /metrics (resident hits and deltas all took the engine queue)" >&2; exit 1; }
    echo "loadtest: $(grep -E '^redux_server_inline_total ' "$work/metrics.txt")"
fi

if [ "$gateway" -gt 0 ]; then
    # The gateway's own front door serves nothing inline, but affinity
    # routing sends every repeat of a hot loop to the backend that holds
    # its resident total, whose read loop answers it: summed over the
    # backends, the inline counter must have moved.
    inline=0
    for d in $backend_dbgs; do
        curl -fsS "http://$d/metrics" > "$work/metrics-backend-${d##*:}.txt" \
            || { echo "loadtest: FAIL: backend $d /metrics scrape" >&2; exit 1; }
        got=$(awk '$1 == "redux_server_inline_total" {print $2}' "$work/metrics-backend-${d##*:}.txt")
        inline=$((inline + ${got:-0}))
    done
    [ "$inline" -gt 0 ] \
        || { echo "loadtest: FAIL: no job served inline on any backend (hot repeats all took the engine queue)" >&2; exit 1; }
    echo "loadtest: backends' redux_server_inline_total sum $inline"
fi

if [ "$tenants" -gt 0 ]; then
    # The per-tenant series must carry real labeled samples, and the
    # capped tenant's rejections must have reached the exported counter
    # (server busy counts merged into the engine rows).
    grep -q 'redux_engine_tenant_jobs_total{tenant="t1"}' "$work/metrics.txt" \
        || { echo "loadtest: FAIL: per-tenant job series missing from /metrics" >&2; exit 1; }
    grep -Eq 'redux_engine_tenant_busy_total\{tenant="capped"\} [1-9]' "$work/metrics.txt" \
        || { echo "loadtest: FAIL: capped tenant drew no busy rejections in /metrics" >&2; exit 1; }
fi

curl -fsS "http://$front_dbg/tracez" > "$work/tracez.json"
grep -q '"trace_id"' "$work/tracez.json" \
    || { echo "loadtest: FAIL: /tracez has no traces despite -trace-slow -1ns" >&2; exit 1; }

if [ "$gateway" -gt 0 ]; then
    # A recent gateway trace's backend leg must sit in the owning
    # backend's ring under the same forwarded trace ID. Ring adds drop
    # under write contention (TryLock sampling), so try the newest few
    # gateway IDs rather than demanding exactly the newest survived on
    # both tiers.
    for d in $backend_dbgs; do
        curl -fsS "http://$d/tracez" > "$work/tracez-backend-${d##*:}.json"
    done
    found=""
    for tid in $(awk -F'[:,]' '/"trace_id"/ {gsub(/ /, "", $2); print $2}' "$work/tracez.json" | head -10); do
        if grep -q "\"trace_id\": $tid" "$work"/tracez-backend-*.json; then
            found=$tid
            break
        fi
    done
    [ -n "$found" ] || { echo "loadtest: FAIL: none of the gateway's newest traces found on any backend" >&2; exit 1; }
    echo "loadtest: trace $found stitched across gateway and backend tiers"
fi

# Graceful drain, front tier first: TERM each daemon and wait; each
# prints its lifetime stats.
rev=""
for pid in $pids; do rev="$pid $rev"; done
for pid in $rev; do
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" || { echo "loadtest: daemon $pid exited non-zero" >&2; exit 1; }
done
pids=""
cat "$work"/redux*.log

# Validate the JSON report (pretty-printed, one field per line). In
# session mode the session accounting is checked as well: every delta
# batch must have been served through a session
# (session_jobs == jobs, so none fell back to one-shot submits), every
# stream must have opened (session_opens == SESSIONS), and the driver's
# shadow full-recompute verification must actually have run.
awk -v jobs="$jobs" -v sessions="$sessions" -v tenants="$tenants" '
function val(line) { gsub(/[^0-9.]/, "", line); return line + 0 }
/"jobs":/          { got_jobs = val($2) }
/"failures":/      { failures = val($2) }
/"verified":/      { verified = ($2 ~ /true/) }
/"session_opens":/ { opens = val($2) }
/"session_jobs":/  { sjobs = val($2) }
/"shadow_checks":/ { shadow = val($2) }
# Tenant rows are the only objects in the report with a "name" field;
# the fields that follow one belong to that tenant until the next.
/"name":/          { gsub(/[", ]/, "", $2); cur = $2 }
/"offered_jobs":/  { offered[cur] = val($2) }
/"server_jobs":/   { served[cur] = val($2) }
/"busy":/          { tbusy[cur] = val($2) }
END {
    if (sessions > 0) {
        printf "loadtest: jobs=%d failures=%d verified=%d session_opens=%d session_jobs=%d shadow_checks=%d\n", \
            got_jobs, failures, verified, opens, sjobs, shadow
    } else {
        printf "loadtest: jobs=%d failures=%d verified=%d\n", got_jobs, failures, verified
    }
    if (got_jobs != jobs) { print "loadtest: FAIL: job count mismatch"; exit 1 }
    if (failures != 0)    { print "loadtest: FAIL: client failures"; exit 1 }
    if (!verified)        { print "loadtest: FAIL: results not verified"; exit 1 }
    if (sessions > 0) {
        if (opens != sessions) { print "loadtest: FAIL: session open count mismatch"; exit 1 }
        if (sjobs != jobs)     { print "loadtest: FAIL: delta batches not all served through sessions"; exit 1 }
        if (shadow <= 0)       { print "loadtest: FAIL: shadow full-recompute verification never ran"; exit 1 }
    } else if (tenants > 0) {
        # Closed-loop offers with BUSY retry mean every tenant completes
        # exactly its weight-proportional share; the server rows must
        # attribute them back without loss or cross-charging.
        nrows = 0; bad = 0
        for (name in offered) {
            nrows++
            printf "loadtest: tenant %s: offered=%d server=%d busy=%d\n", \
                name, offered[name], served[name], tbusy[name]
            if (served[name] != offered[name]) {
                printf "loadtest: FAIL: tenant %s server attribution != offered share\n", name; bad = 1
            }
        }
        if (nrows != tenants)   { print "loadtest: FAIL: tenant row count mismatch"; bad = 1 }
        if (tbusy["capped"] <= 0) { print "loadtest: FAIL: capped tenant drew no busy rejections"; bad = 1 }
        if (bad) exit 1
    }
}' "$work/report.json"

echo "loadtest: OK"
