#!/bin/sh
# Runs the engine throughput benchmarks and writes BENCH_engine.json so the
# repository's performance trajectory is recorded run over run.
set -eu

cd "$(dirname "$0")/.."
out=BENCH_engine.json

raw=$(go test -bench 'Engine|Scheme|Remote|Gateway|Drift|Simplify|SegPlan|Session|Tenant|Characterize' -benchmem -run '^$' -benchtime 1s . )
echo "$raw"

# Per-kernel microbenchmarks (reduction package): every scheme's RunInto,
# pooled and cold, dense and sparse — so the normalized regression gate in
# bench_compare.sh covers each kernel individually, not just the engine
# aggregate. Shorter benchtime: 20+ sub-benchmarks, each already stable at
# a few hundred iterations.
rawk=$(go test -bench 'Kernel' -benchmem -run '^$' -benchtime 300ms ./internal/reduction/ )
echo "$rawk"
raw=$(printf '%s\n%s' "$raw" "$rawk")

# Parse benchmark lines by unit, not by column position, so custom
# metrics (e.g. BenchmarkRemoteZipf's jobs/batch) don't shift the
# standard fields.
echo "$raw" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go version | awk '{print $3}')" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
    names[n] = name; iters[n] = $2
    ns[n] = ""; bytes[n] = ""; allocs[n] = ""; jpb[n] = ""; aff[n] = ""; rpct[n] = ""; rjobs[n] = ""; ipct[n] = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns[n] = $i
        else if ($(i+1) == "B/op") bytes[n] = $i
        else if ($(i+1) == "allocs/op") allocs[n] = $i
        else if ($(i+1) == "jobs/batch") jpb[n] = $i
        else if ($(i+1) == "entries/pattern") aff[n] = $i
        else if ($(i+1) == "recovery%") rpct[n] = $i
        else if ($(i+1) == "recovery-jobs") rjobs[n] = $i
        else if ($(i+1) == "isolation%") ipct[n] = $i
    }
    n++
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", date, gover
    for (i = 0; i < n; i++) {
        printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
            names[i], iters[i], ns[i], bytes[i], allocs[i]
        if (jpb[i] != "") printf ", \"jobs_per_batch\": %s", jpb[i]
        if (aff[i] != "") printf ", \"affinity_entries_ratio\": %s", aff[i]
        if (rpct[i] != "") printf ", \"recovery_p95_pct\": %s", rpct[i]
        if (rjobs[i] != "") printf ", \"recovery_jobs\": %s", rjobs[i]
        if (ipct[i] != "") printf ", \"isolation_p95_pct\": %s", ipct[i]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' > "$out"

echo "wrote $out"
