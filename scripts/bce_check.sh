#!/bin/sh
# Codegen gate for the optimized reduction kernels and the wire's bulk
# float codec: compiles the packages with the compiler's bounds-check
# diagnostic (-d=ssa/check_bce) and fails
# when a bounds check appears in a gated file on a line that is not
# explicitly intentional. The kernels are written so the prove pass
# discharges every check except the data-dependent gathers (w[idx]
# with a runtime subscript — the in-range proof lives in trace.Loop
# validation, outside the compiler's view); an unmarked check reappearing
# means a refactor broke a BCE idiom and the hot loop silently slowed down.
#
# Gated files: the accumulation and merge kernels (kernels.go) every
# scheme, the simplified execution plan and the sessions run, and the
# RESULT vector's codec (internal/wire/floats.go). On a little-endian
# host the codec is one copy through a byte view of the vector; its
# per-element loops are the portable path, kept in the same file and
# compiled on every host, so they are gated here whichever path the host
# runs. The file's only checks are its four marked whole-vector
# re-slices, one per function.
#
# A check is intentional when either
#   - its source line carries a //bce: marker (//bce:gather for
#     data-dependent element accesses, //bce:slice for block sub-slicing), or
#   - scripts/bce_allow.txt lists its "file:line" (for checks the marker
#     cannot sit on, e.g. multi-line statements) with a trailing comment
#     saying why.
#
# usage: bce_check.sh
#
# Go >= 1.21 replays compiler diagnostics from the build cache, so repeat
# runs stay fast; the script fails loudly if the expected diagnostics are
# missing entirely for any gated file (a cache or toolchain anomaly would
# otherwise read as a false pass, since the gathers and the codec's
# whole-vector re-slices guarantee at least one check per file).
set -eu

cd "$(dirname "$0")/.."
gates="internal/reduction/kernels.go internal/wire/floats.go"
allow=scripts/bce_allow.txt

if ! diag=$(go build -gcflags='-d=ssa/check_bce' ./internal/reduction/ ./internal/wire/ 2>&1); then
    echo "$diag"
    echo "bce_check: go build failed" >&2
    exit 2
fi

echo "$diag" | awk -v gates="$gates" -v allow="$allow" '
BEGIN {
    # Lines of each gated file carrying a //bce: marker are intentional.
    ngates = split(gates, gate, " ")
    for (g = 1; g <= ngates; g++) {
        f = gate[g]
        isGate[f] = 1
        n = 0
        while ((getline line < f) > 0) {
            n++
            if (line ~ /\/\/bce:/) marked[f ":" n] = 1
        }
        close(f)
        if (n == 0) { print "bce_check: cannot read " f; exit 2 }
    }
    # Allowlisted "file:line" entries ("#" comments and blanks ignored).
    while ((getline line < allow) > 0) {
        sub(/[ \t]*#.*/, "", line)
        gsub(/[ \t]/, "", line)
        if (line != "") allowed[line] = 1
    }
    close(allow)
}
/ Found Is(Slice)?InBounds$/ {
    split($1, loc, ":")
    file = loc[1]; lineno = loc[2]
    if (!(file in isGate)) next
    total[file]++
    if (marked[file ":" lineno] || (file ":" lineno in allowed)) { ok[file]++; next }
    bad++
    print "bce_check: UNMARKED bounds check at " file ":" lineno ":" loc[3]
}
END {
    for (g = 1; g <= ngates; g++) {
        f = gate[g]
        if (total[f] == 0) {
            print "bce_check: no bounds-check diagnostics for " f " at all;"
            print "bce_check: the marked checks make that impossible — stale build"
            print "bce_check: cache or toolchain change. Try: go clean -cache"
            exit 2
        }
        printf "bce_check: %d bounds check(s) in %s, %d intentional, %d unmarked\n", total[f], f, ok[f], total[f] - ok[f]
    }
    if (bad) {
        print "bce_check: FAIL: restore the BCE idiom (see kernels.go header),"
        print "bce_check: or mark the line //bce:gather if the check is truly"
        print "bce_check: data-dependent (or add file:line to " allow ")."
        exit 1
    }
}'
