//go:build ignore

// gen_corpus.go regenerates the checked-in seed corpus for
// FuzzDecodeFrame from real encoded frames of every type (run with
// `go run gen_corpus.go` in this directory). The corpus gives the CI
// fuzz run structured starting points — length-prefixed frames with
// valid varint fields, loop payloads and the optional trailing
// extensions (HELLO flags, STATS recalibration pair) — instead of
// making it rediscover the framing from empty input every run.
// TestSeedCorpusDecodes keeps the files honest. The tail variants
// (HELLO flags, SUBMIT trace ID, the RESULT session generation, the
// STATS recal/simplify/histogram/session chain) and the session frames
// (OPEN_SESSION, SUBMIT_DELTA, CLOSE_SESSION) each get their own seed so
// the mutator starts from every frame length the protocol can produce;
// so do the pattern-handle additions (the HELLO capability bit, the
// SUBMIT_REF frame with and without a trace ID, and the RESULT handle
// tail alone and behind a session generation).
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	l := trace.NewLoop("corpus", 64)
	l.WorkPerIter = 2.5
	l.Invocations = 3
	l.AddIter(1, 5, 9)
	l.AddIter(5, 5, 63)
	l.AddIter(0)
	l.AddIter(62, 2, 33, 7)

	res := engine.Result{
		Values: []float64{1.5, -2.25, 0, 3e9}, Scheme: "hash",
		Why: "very sparse", CacheHit: true, BatchSize: 3,
		Elapsed: 123456, Imbalance: 1.25,
	}
	stats := engine.Stats{
		Jobs: 100, CacheHits: 80, CacheMisses: 20, Batches: 40, Coalesced: 60,
		CacheEntries: 7, CacheEvictions: 2,
		Schemes:        map[string]uint64{"rep": 60, "ll": 40},
		BatchOccupancy: []uint64{0, 10, 15},
	}
	recal := stats
	recal.Recalibrations, recal.SchemeSwitches = 9, 4
	simp := recal
	simp.SimplifiedBatches, simp.SimplifyFallbacks = 12, 1
	simp.SegsComputed, simp.SegsReused = 30, 18
	hist := simp
	hist.Stages = []obs.StageSummary{
		{Name: "queue_wait", Snap: obs.Snapshot{Count: 90, SumNs: 81000, MaxNs: 4000, Buckets: []uint64{2, 0, 0, 5, 83}}},
		{Name: "execute", Snap: obs.Snapshot{Count: 100, SumNs: 2_500_000, MaxNs: 90_000, Buckets: []uint64{0, 0, 0, 0, 0, 0, 0, 0, 1, 4, 95}}},
	}
	sess := hist
	sess.SessionOpens, sess.SessionJobs = 3, 25
	sess.SessionSegsComputed, sess.SessionSegsReused = 40, 160
	ten := sess
	ten.Tenants = []engine.TenantStats{
		{Name: "default", Weight: 1, Jobs: 30, Batches: 12,
			QueueWait: obs.Snapshot{Count: 30, SumNs: 27000, MaxNs: 1300, Buckets: []uint64{1, 0, 4, 25}}},
		{Name: "acme", Weight: 4, Jobs: 70, Batches: 28, Busy: 5, Recalibrations: 6, SchemeSwitches: 3,
			QueueWait: obs.Snapshot{Count: 60, SumNs: 54000, MaxNs: 2700, Buckets: []uint64{1, 0, 9, 50}}},
	}

	sessRes := res
	sessRes.Scheme, sessRes.SessionGen = "session", 26

	deltas := []reduction.RefDelta{{Pos: 0, Ref: 5}, {Pos: 3, Ref: 0}, {Pos: 9, Ref: 63}}

	seeds := map[string][]byte{
		"hello":             wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Procs: 8, MaxInflight: 64}),
		"hello-flags":       wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Procs: 8, MaxInflight: 64, Flags: wire.HelloFlagGateway}),
		"submit":            wire.AppendSubmit(nil, 1, l),
		"submit-traced":     wire.AppendSubmitTraced(nil, 1, l, 0x9e3779b97f4a7c15),
		"result":            wire.AppendResult(nil, 2, &res),
		"error":             wire.AppendError(nil, 3, "loop rejected"),
		"busy":              wire.AppendBusy(nil, 4, wire.BusyUpstream),
		"statsreq":          wire.AppendStatsReq(nil, 5),
		"stats":             wire.AppendStats(nil, 6, &stats),
		"stats-recal":       wire.AppendStats(nil, 7, &recal),
		"stats-simplify":    wire.AppendStats(nil, 8, &simp),
		"stats-hist":        wire.AppendStats(nil, 9, &hist),
		"stats-session":     wire.AppendStats(nil, 10, &sess),
		"open-session":      wire.AppendOpenSession(nil, 11, 1, l),
		"delta":             wire.AppendDelta(nil, 12, 1, deltas),
		"delta-empty":       wire.AppendDelta(nil, 13, 1, nil),
		"close-session":     wire.AppendCloseSession(nil, 14, 1),
		"result-gen":        wire.AppendResult(nil, 15, &sessRes),
		"busy-session":      wire.AppendBusy(nil, 16, wire.BusySession),
		"hello-tenant":      wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Procs: 8, MaxInflight: 64, Tenant: "acme"}),
		"stats-tenant":      wire.AppendStats(nil, 17, &ten),
		"busy-tenant":       wire.AppendBusy(nil, 18, wire.BusyTenant),
		"hello-handles":     wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Procs: 8, MaxInflight: 64, Flags: wire.HelloFlagPatternHandles}),
		"submit-ref":        wire.AppendSubmitRef(nil, 19, l.Fingerprint(), 3, 0),
		"submit-ref-traced": wire.AppendSubmitRef(nil, 20, l.Fingerprint(), 300, 0x9e3779b97f4a7c15),
		"result-handle":     wire.AppendResultHandle(nil, 21, &res, 300),
		"result-gen-handle": wire.AppendResultHandle(nil, 22, &sessRes, 3),
	}
	for name, b := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		path := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame", "seed-"+name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}
}
