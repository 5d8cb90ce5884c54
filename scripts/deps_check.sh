#!/bin/sh
# Checks the service/lab boundary (docs/ARCHITECTURE.md, "Service and
# lab"): the paper track — the simulated machine, the schemes'
# virtual-time twins, the SmartApps runtime, the experiments — may import
# the kernels, never the other way round.
#
#   1. The dependency closure of the daemons, the load driver, the test
#      kit (faultnet included) and the bench/ module contains no lab
#      package.
#   2. Every importer of a lab package (test files included) is itself a
#      lab package, one of the three paper-track commands, or an example.
#   3. internal/core, the host descriptor, and internal/clock, the one
#      eviction mechanism, import nothing from this module.
#
# A lab package is anything under internal/lab/ plus the simulator
# packages that predate that directory and keep their import paths (see
# ROADMAP item 8). `make deps-check`; part of `make ci` and the lint job.
set -eu

cd "$(dirname "$0")/.."

mod=repro
lab="^$mod/internal/(lab/.*|vtime|simcache|simarch|pclr|machine|spec|experiments)\$"
allowed="^$mod/(internal/lab/.*|cmd/smartapps|cmd/pclrsim|cmd/reduxsel|examples/.*)\$"

bad=0

# Rule 1.
closure=$( { go list -deps ./cmd/reduxd ./cmd/reduxgw ./cmd/reduxserve ./internal/testkit/...
             go list -C bench -deps ./...; } | sort -u)
leaked=$(echo "$closure" | grep -E "$lab" || true)
if [ -n "$leaked" ]; then
    echo "deps_check: lab packages in the service closure:" >&2
    echo "$leaked" | sed 's/^/  /' >&2
    bad=1
fi

# Rule 2. One line per (importer, imported) pair, tests included.
pairs=$(go list -f '{{$p := .ImportPath}}{{range .Imports}}{{$p}} {{.}}
{{end}}{{range .TestImports}}{{$p}} {{.}}
{{end}}{{range .XTestImports}}{{$p}} {{.}}
{{end}}' ./...)
offenders=$(echo "$pairs" | awk -v lab="$lab" -v allowed="$allowed" \
    '$2 ~ lab && $1 !~ lab && $1 !~ allowed { print "  " $1 " imports " $2 }' | sort -u)
if [ -n "$offenders" ]; then
    echo "deps_check: lab packages imported from outside the lab:" >&2
    echo "$offenders" >&2
    bad=1
fi

# Rule 3.
for leaf in internal/core internal/clock; do
    leafdeps=$(go list -f '{{range .Imports}}{{.}}
{{end}}' ./$leaf | grep "^$mod/" || true)
    if [ -n "$leafdeps" ]; then
        echo "deps_check: $leaf must import nothing from this module, found:" >&2
        echo "$leafdeps" | sed 's/^/  /' >&2
        bad=1
    fi
done

[ "$bad" -eq 0 ] || exit 1
echo "deps_check: service closure lab-free, lab importers confined, core and clock leaves"
