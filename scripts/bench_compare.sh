#!/bin/sh
# Compares a candidate BENCH_engine.json against a baseline and fails when
# any benchmark's ns_per_op regressed by more than BENCH_TOLERANCE_PCT
# (default 25). Benchmarks present in only one file are reported but not
# gated, so adding or renaming benchmarks never breaks the gate.
#
# Every gate below runs even after an earlier one fails; the script
# reports all failing gates for the run and exits nonzero if any failed,
# so one broken floor never hides another.
#
# usage: bench_compare.sh [baseline.json [candidate.json]]
#
# With no baseline argument the committed HEAD version of BENCH_engine.json
# is used; if HEAD has none the comparison is skipped (first run).
#
# Absolute ns/op is only comparable on the machine that recorded the
# baseline. On different hardware (CI runners), set
# BENCH_NORMALIZE=<benchmark name> to divide every ns_per_op by that
# benchmark's ns_per_op from the same file before comparing: machine speed
# cancels to first order and the gate checks *relative* regressions (e.g.
# the engine getting slower relative to the cold per-call path).
set -eu

cd "$(dirname "$0")/.."
tol="${BENCH_TOLERANCE_PCT:-25}"
norm="${BENCH_NORMALIZE:-}"
cand="${2:-BENCH_engine.json}"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

if [ "${1:-}" ]; then
    base="$1"
else
    base="$tmpdir/baseline.json"
    if ! git show HEAD:BENCH_engine.json > "$base" 2>/dev/null; then
        echo "bench_compare: no committed baseline (HEAD:BENCH_engine.json); skipping"
        exit 0
    fi
fi

[ -f "$cand" ] || { echo "bench_compare: candidate $cand not found" >&2; exit 2; }

# Extract "name ns_per_op" pairs from the one-benchmark-per-line JSON that
# bench_engine.sh writes, optionally normalized to the reference
# benchmark's ns_per_op from the same file. A record without an ns_per_op
# value (a benchmark that errored out, or a hand-edited baseline) is
# reported by name and skipped rather than silently dropped — a missing
# key must never surface later as an inscrutable awk failure.
extract() {
    awk -F'"' -v norm="$norm" '
    /"name":/ {
        name = $4
        if (match($0, /"ns_per_op": *[0-9]+/)) {
            v = substr($0, RSTART, RLENGTH)
            gsub(/[^0-9]/, "", v)
            names[++n] = name; vals[n] = v
            if (name == norm) ref = v
        } else {
            printf "bench_compare: %s in %s has no ns_per_op value; skipping it\n", name, FILENAME > "/dev/stderr"
        }
    }
    END {
        if (norm != "" && ref + 0 <= 0) {
            printf "bench_compare: normalization benchmark %s has no ns_per_op in %s\n", norm, FILENAME > "/dev/stderr"
            exit 2
        }
        for (i = 1; i <= n; i++)
            print names[i], (norm == "" ? vals[i] : vals[i] / ref)
    }' "$1"
}

extract "$base" > "$tmpdir/base"
extract "$cand" > "$tmpdir/cand"

# failed accumulates the names of failing gates so every floor is
# checked and reported in one run.
failed=""

unit="ns/op"
[ -n "$norm" ] && unit="x $norm"

awk -v tol="$tol" -v unit="$unit" '
NR == FNR { base[$1] = $2; next }
{
    seen[$1] = 1
    if (!($1 in base)) { printf "NEW        %-45s %12.6g %s\n", $1, $2, unit; next }
    if (base[$1] <= 0) next
    pct = ($2 / base[$1] - 1) * 100
    flag = "ok"
    if (pct > tol) { flag = "REGRESSED"; bad++ }
    printf "%-10s %-45s %12.6g -> %12.6g %s  (%+.1f%%)\n", flag, $1, base[$1], $2, unit, pct
}
END {
    for (n in base) if (!(n in seen)) printf "DROPPED    %-45s\n", n
    if (bad) {
        printf "bench_compare: %d benchmark(s) regressed more than %d%%\n", bad, tol
        exit 1
    }
}' "$tmpdir/base" "$tmpdir/cand" && \
    echo "bench_compare: throughput within ${tol}% of baseline (${unit})" || \
    failed="$failed throughput"

# Kernel-coverage check: the candidate must carry the per-scheme kernel
# microbenchmarks (Kernel/<scheme>/...) for all five schemes, so a bench
# suite edit cannot silently drop a kernel from the regression gate. The
# check is skipped only when the baseline predates the kernel suite (no
# Kernel entries at all) AND the candidate has none either — i.e. on
# historical comparisons, not on fresh runs.
awk -v cand="$cand" '
FILENAME == cand && /"name": "Kernel\// {
    split($0, q, "\"")
    split(q[4], parts, "/")
    if (!(parts[2] in seen)) nseen++
    seen[parts[2]] = 1
}
END {
    split("rep ll sel lw hash", want, " ")
    missing = ""
    for (i in want) if (!(want[i] in seen)) missing = missing " " want[i]
    if (nseen == 0 && missing != "") {
        printf "bench_compare: kernel coverage skipped: no Kernel benchmarks in %s (pre-kernel-suite run)\n", cand
        exit 0
    }
    if (missing != "") {
        printf "bench_compare: FAIL: kernel microbenchmarks missing for:%s\n", missing
        exit 1
    }
    print "bench_compare: kernel coverage: all five schemes benchmarked"
}' "$cand" || failed="$failed kernel-coverage"

# Pattern-affinity gate: the backends' decision-cache entries summed
# over the tier, per distinct pattern in the stream (GatewayZipf
# affinity_entries_ratio, the root-bench twin of bench/'s
# cluster.affinity_entries_ratio), must not exceed AFFINITY_MAX_ENTRIES
# (default 1.0): rendezvous routing sends each pattern to exactly one
# backend, so a reading above 1 means some pattern was taught to two.
# The fusion-occupancy ratio (GatewayZipf vs RemoteZipf jobs_per_batch)
# is printed beside it but not gated — occupancy follows how fast a tier
# drains its queue, not where the gateway routes. The gate runs whenever
# the candidate carries the ratio and says so when it does not.
awk -v maxr="${AFFINITY_MAX_ENTRIES:-1.0}" -v cand="$cand" '
function field(line, key,    s) {
    if (!match(line, "\"" key "\": *[0-9.]+")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub("^\"" key "\": *", "", s)
    return s
}
/"name": "GatewayZipf"/ { gw = field($0, "jobs_per_batch"); ratio = field($0, "affinity_entries_ratio") }
/"name": "RemoteZipf"/  { remote = field($0, "jobs_per_batch") }
END {
    if (gw + 0 > 0 && remote + 0 > 0)
        printf "bench_compare: gateway fusion occupancy %.2f vs single-node %.2f jobs/batch (%.0f%%, not gated)\n", gw, remote, 100 * gw / remote
    if (ratio + 0 <= 0) {
        printf "bench_compare: affinity gate skipped: GatewayZipf affinity_entries_ratio missing from %s\n", cand
        exit 0
    }
    printf "bench_compare: pattern affinity: %.3f backend decision-cache entries per distinct pattern (ceiling %.3f)\n", ratio, maxr
    if (ratio + 0 > maxr + 0) {
        print "bench_compare: FAIL: some pattern was routed to more than one backend"
        exit 1
    }
}' "$cand" || failed="$failed affinity"

# Network-hop gate (ROADMAP 1(a)): what one loopback hop adds to a job —
# RemoteZipf minus EngineZipf32Clients, the root-bench twin of
# bench/'s stack.hop_overhead_us — must not grow past the baseline
# file's overhead by more than the tolerance. With pattern handles a
# repeat submission ships and decodes a few bytes, so what is left of
# the hop is sockets, goroutine hand-offs and the result array; an
# overhead an order of magnitude up means the pattern is being
# re-shipped or re-decoded again. The difference is gated, not the
# ratio: a faster engine lowers the denominator and would fail a ratio
# while the hop itself got cheaper. The gate reuses the extracted
# (possibly normalized) pairs, so it respects BENCH_NORMALIZE on foreign
# hardware; it runs whenever both files carry both rows and names the
# missing one when they do not.
awk -v tol="$tol" -v unit="$unit" '
NR == FNR { base[$1] = $2; next }
{ cand[$1] = $2 }
END {
    r = "RemoteZipf"; e = "EngineZipf32Clients"
    if (!(r in cand) || !(e in cand) || !(r in base) || !(e in base)) {
        miss = (!(r in cand) || !(r in base)) ? r : e
        printf "bench_compare: network-hop gate skipped: %s missing from baseline or candidate\n", miss
        exit 0
    }
    bo = base[r] - base[e]; co = cand[r] - cand[e]
    if (bo <= 0) {
        printf "bench_compare: network-hop gate skipped: baseline hop overhead %.6g %s is not positive\n", bo, unit
        exit 0
    }
    pct = (co / bo - 1) * 100
    printf "bench_compare: network hop overhead (%s - %s): %.6g -> %.6g %s  (%+.1f%%, ceiling +%d%%)\n", r, e, bo, co, unit, pct, tol
    if (pct > tol) {
        print "bench_compare: FAIL: one loopback hop adds more over in-process than the baseline allows"
        exit 1
    }
}' "$tmpdir/base" "$tmpdir/cand" || failed="$failed network-hop"

# Drift-recovery gate: after the DriftRecovery phase shift, the measured
# p95 must have returned to within RECOVERY_MAX_PCT (default 125) percent
# of an independently measured steady state, within RECOVERY_MAX_JOBS
# (default 1024) post-shift jobs — the mechanical check behind the
# recalibration subsystem's claim that a stale decision cannot degrade a
# drifted workload indefinitely (the measured figure is ~16 jobs; the
# ceiling leaves room for runner noise, not for a regression to
# thousands). Runs whenever the candidate carries the metric; a baseline
# that has it while the fresh run does not is called out by name (the
# benchmark was dropped or its run was too short to measure a
# trajectory).
awk -v maxpct="${RECOVERY_MAX_PCT:-125}" -v maxjobs="${RECOVERY_MAX_JOBS:-1024}" -v cand="$cand" -v base="$base" '
# field(line, key) returns the numeric value of "key": <num>, or "".
# The key name itself may contain digits (p95), so the prefix is
# stripped explicitly rather than squeezed out character-wise.
function field(line, key,    s) {
    if (!match(line, "\"" key "\": *[0-9.]+")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub("^\"" key "\": *", "", s)
    return s
}
/"name": "DriftRecovery"/ {
    if (FILENAME == cand) {
        pct = field($0, "recovery_p95_pct")
        jobs = field($0, "recovery_jobs")
    }
    if (FILENAME == base && /"recovery_p95_pct"/) inBase = 1
}
END {
    if (pct + 0 <= 0) {
        if (inBase) {
            printf "bench_compare: recovery gate skipped: DriftRecovery recovery_p95_pct in baseline %s but missing from %s\n", base, cand
        } else {
            printf "bench_compare: recovery gate skipped: DriftRecovery recovery_p95_pct missing from %s\n", cand
        }
        exit 0
    }
    printf "bench_compare: drift recovery: post-shift p95 back to %.1f%% of steady state after %.0f jobs (ceilings %d%%, %d jobs)\n", pct, jobs, maxpct, maxjobs
    if (pct + 0 > maxpct + 0) {
        print "bench_compare: FAIL: drifted workload did not recover to steady-state latency"
        exit 1
    }
    if (jobs + 0 > maxjobs + 0) {
        print "bench_compare: FAIL: recovery took more post-shift jobs than the ceiling allows"
        exit 1
    }
}' "$base" "$cand" || failed="$failed drift-recovery"

# Simplification gate: the shared-subrange overlap benchmark
# (SimplifyOverlap/{direct,simplified}-occN) must show at least
# SIMPLIFY_MIN_SPEEDUP (default 1.5) per-job speedup of the simplified
# plan over direct per-member execution at every recorded occupancy —
# the mechanical check behind the claim that shared-segment partial-sum
# reuse wins at batch occupancy >= 4. Both figures come from the same
# file and machine, so no normalization is needed; the gate runs
# whenever the candidate carries a direct/simplified pair and names the
# lone half when it carries only one.
awk -v minx="${SIMPLIFY_MIN_SPEEDUP:-1.5}" -v cand="$cand" '
/"name": "SimplifyOverlap\// && match($0, /"ns_per_op": *[0-9]+/) {
    v = substr($0, RSTART, RLENGTH); gsub(/[^0-9]/, "", v)
    split($0, q, "\"")
    split(q[4], parts, "/")
    if (parts[2] ~ /^direct-/)          { sub(/^direct-/, "", parts[2]); direct[parts[2]] = v }
    else if (parts[2] ~ /^simplified-/) { sub(/^simplified-/, "", parts[2]); simp[parts[2]] = v }
}
END {
    npairs = 0
    for (occ in direct) {
        if (!(occ in simp)) {
            printf "bench_compare: FAIL: SimplifyOverlap/direct-%s has no simplified counterpart in %s\n", occ, cand
            bad++
            continue
        }
        npairs++
        x = direct[occ] / simp[occ]
        printf "bench_compare: simplification %s: %.2fx per-job speedup over direct (floor %.2fx)\n", occ, x, minx
        if (x < minx) {
            printf "bench_compare: FAIL: simplified plan too slow at %s\n", occ
            bad++
        }
    }
    for (occ in simp) if (!(occ in direct)) {
        printf "bench_compare: FAIL: SimplifyOverlap/simplified-%s has no direct counterpart in %s\n", occ, cand
        bad++
    }
    if (npairs == 0 && !bad) {
        printf "bench_compare: simplification gate skipped: no SimplifyOverlap benchmarks in %s\n", cand
        exit 0
    }
    if (bad) exit 1
}' "$cand" || failed="$failed simplification"

# Session gate: incremental re-reduction (SessionDelta/delta) must beat
# re-submitting the whole mutated loop every step (SessionDelta/resubmit)
# by at least SESSION_MIN_SPEEDUP (default 5.0) — the mechanical check
# behind the streaming-session subsystem's claim that moving the
# resident result by the redirected references wins over full
# re-reduction for small update batches, measured on the stream the
# daemon serves (16-delta batches; recorded ratio 636x). Both figures come from the
# same file and machine, so no normalization is needed; the gate runs
# whenever the candidate carries the pair and names the lone half when
# it carries only one.
awk -v minx="${SESSION_MIN_SPEEDUP:-5.0}" -v cand="$cand" '
/"name": "SessionDelta\// && match($0, /"ns_per_op": *[0-9]+/) {
    v = substr($0, RSTART, RLENGTH); gsub(/[^0-9]/, "", v)
    split($0, q, "\"")
    split(q[4], parts, "/")
    if (parts[2] == "delta") delta = v
    else if (parts[2] == "resubmit") resubmit = v
}
END {
    if (delta + 0 <= 0 && resubmit + 0 <= 0) {
        printf "bench_compare: session gate skipped: no SessionDelta benchmarks in %s\n", cand
        exit 0
    }
    if (delta + 0 <= 0 || resubmit + 0 <= 0) {
        printf "bench_compare: FAIL: SessionDelta has only one of delta/resubmit in %s\n", cand
        exit 1
    }
    x = resubmit / delta
    printf "bench_compare: session delta path %.2fx over full resubmit (floor %.2fx)\n", x, minx
    if (x < minx) {
        print "bench_compare: FAIL: incremental re-reduction too slow vs full resubmit"
        exit 1
    }
}' "$cand" || failed="$failed session"

# Tenant-isolation gate: under a 10x hot-tenant flood, the background
# tenant's p95 (TenantIsolation isolation_p95_pct) must stay within
# TENANT_ISOLATION_MAX_PCT (default 150) percent of its solo baseline —
# the mechanical check behind the weighted-fair scheduler's claim that a
# noisy neighbor's backlog cannot queue ahead of another tenant's jobs
# (a shared FIFO fails this by an order of magnitude). Runs whenever the
# candidate carries the metric; a baseline that has it while the fresh
# run does not is called out by name (the benchmark was dropped or ran
# too few iterations to measure a percentile).
awk -v maxpct="${TENANT_ISOLATION_MAX_PCT:-150}" -v cand="$cand" -v base="$base" '
function field(line, key,    s) {
    if (!match(line, "\"" key "\": *[0-9.]+")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub("^\"" key "\": *", "", s)
    return s
}
/"name": "TenantIsolation"/ {
    if (FILENAME == cand) pct = field($0, "isolation_p95_pct")
    if (FILENAME == base && /"isolation_p95_pct"/) inBase = 1
}
END {
    if (pct + 0 <= 0) {
        if (inBase) {
            printf "bench_compare: isolation gate skipped: TenantIsolation isolation_p95_pct in baseline %s but missing from %s\n", base, cand
        } else {
            printf "bench_compare: isolation gate skipped: TenantIsolation isolation_p95_pct missing from %s\n", cand
        }
        exit 0
    }
    printf "bench_compare: tenant isolation: background p95 at %.1f%% of solo baseline under 10x flood (ceiling %d%%)\n", pct, maxpct
    if (pct + 0 > maxpct + 0) {
        print "bench_compare: FAIL: hot tenant degraded the background tenant past the isolation budget"
        exit 1
    }
}' "$base" "$cand" || failed="$failed tenant-isolation"

# Observability-overhead gate: the pooled steady-state hot path
# (SchemeRunColdVsPooled/pooled) must stay within OBS_MAX_OVERHEAD_PCT
# (default 3) percent of the committed baseline — a much tighter ceiling
# than the general throughput tolerance. This is the budget for the
# stage-latency instrumentation: histograms and timelines must never
# leak measurable cost into the reduction hot path. The gate reuses the
# extracted (possibly normalized) pairs, so it respects BENCH_NORMALIZE
# on foreign hardware.
awk -v maxpct="${OBS_MAX_OVERHEAD_PCT:-3}" '
NR == FNR { if ($1 == "SchemeRunColdVsPooled/pooled") base = $2; next }
$1 == "SchemeRunColdVsPooled/pooled" { cand = $2 }
END {
    if (base + 0 <= 0 || cand + 0 <= 0) {
        print "bench_compare: obs-overhead gate skipped: SchemeRunColdVsPooled/pooled missing from baseline or candidate"
        exit 0
    }
    pct = (cand / base - 1) * 100
    printf "bench_compare: observability overhead on pooled hot path: %+.2f%% (ceiling %s%%)\n", pct, maxpct
    if (pct > maxpct + 0) {
        print "bench_compare: FAIL: instrumentation cost on the pooled hot path exceeds the budget"
        exit 1
    }
}' "$tmpdir/base" "$tmpdir/cand" || failed="$failed obs-overhead"

if [ -n "$failed" ]; then
    echo "bench_compare: FAILED gates:$failed"
    exit 1
fi
echo "bench_compare: all gates passed"
