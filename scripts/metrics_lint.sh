#!/bin/sh
# Validates a /metrics dump against the Prometheus text exposition format
# (0.0.4): every sample's family has a preceding # HELP and # TYPE line,
# TYPE is a known kind, sample values are numeric, and every histogram
# family is complete — its _bucket series end with le="+Inf", and _sum
# and _count are present with _count equal to the +Inf bucket.
#
# Which series exist is not checked here: the /metrics page is rendered
# from the stats schemas declared beside the stats structs, and
# internal/metrics' tests hold those tables to the structs, the page and
# the docs/OPERATIONS.md reference.
#
# usage: metrics_lint.sh <metrics-dump-file>
set -eu

[ $# -eq 1 ] || { echo "usage: metrics_lint.sh <metrics-dump-file>" >&2; exit 2; }
dump="$1"
[ -s "$dump" ] || { echo "metrics_lint: $dump missing or empty" >&2; exit 1; }

awk '
function fam(name) {
    # The family of a histogram child series is the name minus the
    # _bucket/_sum/_count suffix, when that family was declared a
    # histogram.
    if (name ~ /_(bucket|sum|count)$/) {
        base = name
        sub(/_(bucket|sum|count)$/, "", base)
        if (type[base] == "histogram") return base
    }
    return name
}
/^# HELP / { help[$3] = 1; next }
/^# TYPE / {
    type[$3] = $4
    if ($4 != "counter" && $4 != "gauge" && $4 != "histogram" && $4 != "summary" && $4 != "untyped") {
        printf "metrics_lint: line %d: unknown TYPE %s for %s\n", NR, $4, $3; bad++
    }
    next
}
/^#/ { next }
/^$/ { next }
{
    # A sample line: name{labels} value  or  name value.
    name = $1
    sub(/\{.*/, "", name)
    f = fam(name)
    if (!(f in type)) { printf "metrics_lint: line %d: sample %s has no TYPE\n", NR, name; bad++ }
    if (!(f in help)) { printf "metrics_lint: line %d: sample %s has no HELP\n", NR, name; bad++ }
    if ($NF !~ /^[-+]?([0-9]*\.)?[0-9]+([eE][-+]?[0-9]+)?$/ && $NF !~ /^[-+]?Inf$/ && $NF != "NaN") {
        printf "metrics_lint: line %d: non-numeric value %s\n", NR, $NF; bad++
    }

    if (f != name) {
        # Histogram child series: key on family + labels minus the le
        # pair, so each labelled histogram is checked independently.
        labels = $1
        if (match(labels, /\{.*\}/)) { labels = substr(labels, RSTART, RLENGTH) } else labels = ""
        gsub(/le="[^"]*",?/, "", labels)
        gsub(/,\}/, "}", labels); gsub(/\{\}/, "", labels)
        k = f labels
        if (name ~ /_bucket$/) {
            nbuckets[k]++
            if ($1 ~ /le="\+Inf"/) { hasinf[k] = 1; infval[k] = $NF }
        }
        if (name ~ /_sum$/)   hassum[k] = 1
        if (name ~ /_count$/) { hascount[k] = 1; countval[k] = $NF }
    }
}
END {
    for (k in nbuckets) {
        if (!(k in hasinf))   { printf "metrics_lint: histogram %s has no +Inf bucket\n", k; bad++ }
        if (!(k in hassum))   { printf "metrics_lint: histogram %s has no _sum\n", k; bad++ }
        if (!(k in hascount)) { printf "metrics_lint: histogram %s has no _count\n", k; bad++ }
        if ((k in hasinf) && (k in hascount) && infval[k] != countval[k]) {
            printf "metrics_lint: histogram %s: +Inf bucket %s != _count %s\n", k, infval[k], countval[k]; bad++
        }
    }
    if (bad) { printf "metrics_lint: %d exposition-format error(s)\n", bad; exit 1 }
}' "$dump"

echo "metrics_lint: OK ($(grep -c '^# TYPE ' "$dump") families, exposition format valid)"
