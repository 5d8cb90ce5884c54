GO ?= go

.PHONY: build test test-short race race-resident bench bench-smoke bench-check fmt vet ci serve loadtest loadtest-gateway fuzz cover docs-check deps-check codegen corpus-check portability

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -short -race ./...

# race-resident repeats the caller-side tests under the race detector —
# the CI build-test job's second step: the engine's resident-result
# serves (the server's inline serve and the Submit family's caller path
# read one immutable resident that a worker's direct run may replace, a
# stale entry's included), session opens racing Close, and interning
# into the engine's table republishing a resident over a new canonical
# loop (Canonical), twenty times; then, five times each, the server's inline path, where a RESULT frame
# lends that resident to the write loop against live connections, the
# stalled-client drain, where lent frames wait on a full socket until
# Shutdown cuts it, the server's session tests, where opens, deltas and
# closes run on each connection's read loop against evictions by other
# connections and connection resets, the Writer's lent-vector
# lifetime (each vector recycled once, after its write, its write error
# or Close), and the seal contract: a sealed loop fingerprinted from
# many goroutines, the server's interned loops sealed at intern and a
# gateway's legs fingerprinting them concurrently.
race-resident:
	$(GO) test -race -count=20 -run 'Resident|Inline|Caller|RacesClose|Seal|Canonical' ./internal/engine/
	$(GO) test -race -count=5 -run 'Inline|StalledClient|Session|Seal' ./internal/server/
	$(GO) test -race -count=5 -run 'WriterLentVector' ./internal/wire/
	$(GO) test -race -count=5 -run 'Seal' ./internal/trace/ ./internal/cluster/

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "needs gofmt:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

# deps-check holds the service/lab boundary: no simulator package in the
# closure of the daemons, the load driver, testkit or bench/; lab
# packages imported only from the lab, the paper-track commands and the
# examples; internal/core
# (the host descriptor) and internal/clock (eviction) leaves.
deps-check:
	./scripts/deps_check.sh

# bench runs the engine throughput benchmarks, records the perf
# trajectory in BENCH_engine.json (one snapshot per invocation), and gates
# the new numbers against the committed baseline (>25% ns/op regression
# fails; tune with BENCH_TOLERANCE_PCT).
bench:
	./scripts/bench_engine.sh
	./scripts/bench_compare.sh

bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-check vets and tests the claims instrument. bench/ is its own
# module (repro/bench, replace repro => ../) that imports internal/...
# packages, so the root build and test never compile it: an internal
# signature change can break the benchmark unseen unless this runs.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# serve runs the reduxd network server in the foreground (ctrl-C drains
# gracefully and prints lifetime stats).
serve:
	$(GO) run ./cmd/reduxd

# loadtest boots reduxd on loopback, streams 2000 Zipf jobs through the
# pooled client (reduxserve -remote -json) and checks the report and
# /metrics: all jobs verified, hot repeats sent as pattern handles and
# answered inline from their resident totals.
loadtest:
	./scripts/loadtest.sh

# loadtest-gateway is the same stream driven through the cluster tier:
# two reduxd backends behind a reduxgw gateway, checking that pattern-
# affinity routing lands hot repeats on the backend holding their
# resident total (summed backend redux_server_inline_total > 0).
loadtest-gateway:
	GATEWAY=2 ./scripts/loadtest.sh

# docs-check validates the documentation suite: every relative markdown
# link under README.md and docs/ resolves to a real file/anchorless
# target, every exported identifier in the network-facing packages
# carries a doc comment, and the metrics reference in docs/OPERATIONS.md
# lists exactly the series a /metrics page declares (CI runs this as the
# docs job).
docs-check:
	$(GO) run ./cmd/doccheck ./internal/wire ./internal/client ./internal/server ./internal/cluster ./internal/obs ./internal/metrics ./internal/tier
	./scripts/md_links.sh
	$(GO) test -count=1 -run '^TestSeriesDocs$$' ./internal/metrics

# fuzz runs the five fuzz targets for 10s each under the race detector,
# starting from their checked-in seed corpora (testdata/fuzz): corrupt or
# truncated wire frames must error, never panic; whatever frame the
# decoders accept must re-encode to a canonical frame that decodes to the
# same value and re-encodes to itself; any loop, width and
# delta stream must keep a session bit-identical to a from-scratch
# rebuild, with rejected batches mutating nothing; any sequence of cache
# operations must keep clock.Cache in step with its reference model; and
# any -tenants string the parser accepts must be a usable admission
# contract (finite limits) that survives a round trip through the syntax.
fuzz:
	$(GO) test -race -run '^FuzzDecodeFrame$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -race -run '^FuzzFrameFixpoint$$' -fuzz '^FuzzFrameFixpoint$$' -fuzztime 10s ./internal/wire
	$(GO) test -race -run '^FuzzDeltaState$$' -fuzz '^FuzzDeltaState$$' -fuzztime 10s ./internal/reduction
	$(GO) test -race -run '^FuzzClockCache$$' -fuzz '^FuzzClockCache$$' -fuzztime 10s ./internal/clock
	$(GO) test -race -run '^FuzzParseTenantSpecs$$' -fuzz '^FuzzParseTenantSpecs$$' -fuzztime 10s ./internal/server

# corpus-check regenerates the FuzzDecodeFrame seed corpus into a
# temporary directory and diffs it against the checked-in seeds, so a
# wire change that moves an encoding cannot leave the corpus behind
# (regenerate with `cd internal/wire && go run gen_corpus.go`).
corpus-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	(cd internal/wire && $(GO) run gen_corpus.go "$$tmp" >/dev/null) && \
	diff -r -x '[!s]*' "$$tmp" internal/wire/testdata/fuzz/FuzzDecodeFrame

# cover measures -short statement coverage over ./internal/... and fails
# if the total drops below the floor committed in scripts/coverage_gate.sh.
cover:
	./scripts/coverage_gate.sh

# codegen compiles the reduction and wire packages with the compiler's
# bounds-check diagnostic and fails when an unmarked check appears in the
# optimized kernels (kernels.go) or the RESULT float codec
# (wire/floats.go) — the CI codegen job, runnable locally.
codegen:
	./scripts/bce_check.sh

# portability cross-compiles for linux/arm64, linux/amd64 at the v3
# (AVX2) microarchitecture level and big-endian linux/s390x (the RESULT
# codec's portable path), then runs the kernel-bearing and transport
# packages' tests shuffled twice — the CI portability job, runnable
# locally.
portability:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=amd64 GOAMD64=v3 $(GO) build ./...
	GOOS=linux GOARCH=s390x $(GO) build ./...
	$(GO) test -shuffle=on -count=2 -short ./internal/reduction/ ./internal/engine/ ./internal/wire/ ./internal/client/ ./internal/server/ ./internal/cluster/

ci: fmt vet deps-check build codegen portability race race-resident bench-smoke bench-check corpus-check fuzz cover loadtest loadtest-gateway docs-check
