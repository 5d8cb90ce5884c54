// Engine throughput benchmarks: the pooled, decision-cached steady state
// of the concurrent reduction engine against the cold per-call path (full
// pattern inspection plus fresh privatization buffers on every job) the
// seed executed. Run them with
//
//	go test -bench Engine -benchmem -run '^$' .
//
// or `make bench`, which records the results in BENCH_engine.json.
package main

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/reduction"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchLoops is the mixed job stream both paths serve: the shared
// workloads.MixedSet, so benchmarks, engine tests and cmd/reduxserve all
// exercise the same regimes.
func benchLoops() []*trace.Loop {
	return workloads.MixedSet(0.5)
}

// BenchmarkEngineSteadyState measures the pooled path: decisions served
// from the signature cache, privatization buffers recycled, results
// written into a caller-reused destination.
func BenchmarkEngineSteadyState(b *testing.B) {
	loops := benchLoops()
	e, err := engine.New(engine.Config{Workers: 1, Platform: core.DefaultPlatform(8)})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	var dst []float64
	for _, l := range loops { // warm cache and pools
		res, err := e.Submit(l)
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Values
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.SubmitInto(loops[i%len(loops)], dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Values
	}
}

// BenchmarkEngineColdPerCall measures the seed's per-call path: every job
// re-runs sampled pattern inspection, re-decides, and executes via
// Scheme.Run with cold-allocated privatization buffers.
func BenchmarkEngineColdPerCall(b *testing.B) {
	loops := benchLoops()
	cfg := core.DefaultPlatform(8).Cfg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := loops[i%len(loops)]
		prof := pattern.CharacterizeSampled(l, 8, cfg.L2Bytes, 8)
		rec := adapt.Recommend(prof)
		if out := adapt.SchemeFor(rec).Run(l, 8); len(out) != l.NumElems {
			b.Fatal("bad result length")
		}
	}
}

// BenchmarkCharacterizeSampled measures the inspector pass alone, at the
// engine's stride and cache geometry: what a decision-cache miss pays
// before any scheme runs. One op is one loop of the mixed set.
func BenchmarkCharacterizeSampled(b *testing.B) {
	cfg := core.DefaultPlatform(8).Cfg
	for _, scale := range []float64{0.25, 0.5} {
		loops := workloads.MixedSet(scale)
		b.Run(fmt.Sprintf("mixed-%g", scale), func(b *testing.B) {
			var prof *pattern.Profile
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prof = pattern.CharacterizeSampled(loops[i%len(loops)], 8, cfg.L2Bytes, 8)
			}
			if prof.TotalRefs == 0 {
				b.Fatal("empty profile")
			}
		})
	}
}

// BenchmarkEngineConcurrentThroughput measures the bounded worker pool
// under contention: 8 clients share 4 workers.
func BenchmarkEngineConcurrentThroughput(b *testing.B) {
	loops := benchLoops()
	e, err := engine.New(engine.Config{Workers: 4, Platform: core.DefaultPlatform(8)})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for _, l := range loops {
		if _, err := e.Submit(l); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.SetParallelism(2) // 2 x GOMAXPROCS submitting goroutines
	b.RunParallel(func(pb *testing.PB) {
		var dst []float64
		i := 0
		for pb.Next() {
			res, err := e.SubmitInto(loops[i%len(loops)], dst)
			if err != nil {
				b.Fatal(err)
			}
			dst = res.Values
			i++
		}
	})
}

// BenchmarkEngineZipf32Clients measures the sharded engine under the
// Zipf-skewed hot-key stream with 32 concurrent clients — the production
// traffic shape where a few patterns dominate, so most jobs are resident
// hits answered on the submitting goroutine. It is the in-process half of
// the network-hop gate (RemoteZipf minus this row).
func BenchmarkEngineZipf32Clients(b *testing.B) {
	loops := workloads.HotKeySet(16, 0.5)
	stream := workloads.ZipfStream(loops, 4096, 1.4, 1)
	e, err := engine.New(engine.Config{
		Workers:    4,
		Platform:   core.DefaultPlatform(8),
		QueueDepth: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for _, l := range loops { // warm cache and pools
		if _, err := e.Submit(l); err != nil {
			b.Fatal(err)
		}
	}
	const clients = 32
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []float64
			for {
				n := int(next.Add(1)) - 1
				if n >= b.N {
					return
				}
				res, err := e.SubmitInto(stream[n%len(stream)], dst)
				if err != nil {
					b.Error(err)
					return
				}
				dst = res.Values
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGatewayZipf is BenchmarkRemoteZipf through the cluster tier:
// the same Zipf hot-key stream from 32 clients, but routed by a gateway
// across 2 reduxd backends instead of hitting one daemon directly. The
// "jobs/batch" metric is the aggregate batch-fusion occupancy across
// both engines; it follows tier latency as much as routing (a faster
// backend drains its queue before duplicates arrive), so it is recorded
// and printed, not gated. The affinity claim is gated on its direct
// reading, "entries/pattern": the backends' decision-cache entries summed
// over the tier, divided by the distinct patterns in the stream — the
// root-bench twin of bench/'s cluster.affinity_entries_ratio. Rendezvous
// routing sends each pattern to one backend, so it must read exactly 1;
// round-robin routing would teach every backend every pattern and read
// 2. ns/op adds the gateway's decode/intern/re-encode hop on top of
// RemoteZipf's stack.
func BenchmarkGatewayZipf(b *testing.B) {
	loops := workloads.HotKeySet(16, 0.5)
	stream := workloads.ZipfStream(loops, 4096, 1.4, 1)
	const backends = 2
	engines := make([]*engine.Engine, backends)
	addrs := make([]string, backends)
	for i := range engines {
		eng, err := engine.New(engine.Config{
			Workers:    4,
			Platform:   core.DefaultPlatform(8),
			QueueDepth: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		engines[i] = eng
		srv := server.New(eng, server.Config{MaxInflightGlobal: 4096})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		defer func() {
			if err := srv.Shutdown(10 * time.Second); err != nil {
				b.Error(err)
			}
			<-done
		}()
	}
	pool, err := cluster.New(cluster.Config{Backends: addrs, Conns: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	gw := server.NewWithDispatcher(pool, server.Config{MaxInflightGlobal: 4096})
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.Serve(gln) }()
	defer func() {
		if err := gw.Shutdown(10 * time.Second); err != nil {
			b.Error(err)
		}
		<-gwDone
	}()
	cl, err := client.Dial(gln.Addr().String(), client.Config{Conns: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	for _, l := range loops { // warm caches, pools and intern tables
		if _, err := cl.Submit(l); err != nil {
			b.Fatal(err)
		}
	}
	var warmJobs, warmBatches uint64
	for _, eng := range engines {
		s := eng.Stats()
		warmJobs += s.Jobs
		warmBatches += s.Batches
	}
	const clients = 32
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []float64
			for {
				n := int(next.Add(1)) - 1
				if n >= b.N {
					return
				}
				res, err := cl.SubmitInto(stream[n%len(stream)], dst)
				if err != nil {
					b.Error(err)
					return
				}
				dst = res.Values
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	var jobs, batches uint64
	entries := 0
	for _, eng := range engines {
		s := eng.Stats()
		jobs += s.Jobs
		batches += s.Batches
		entries += s.CacheEntries
	}
	if batches > warmBatches {
		b.ReportMetric(float64(jobs-warmJobs)/float64(batches-warmBatches), "jobs/batch")
	}
	patterns := make(map[uint64]bool, len(loops))
	for _, l := range loops {
		patterns[l.Fingerprint()] = true
	}
	b.ReportMetric(float64(entries)/float64(len(patterns)), "entries/pattern")
}

// BenchmarkDriftRecovery measures how fast the recalibration subsystem
// returns a drifted workload to steady-state latency. The engine warms on
// the sparse phase of a drifting hot-key population (deciding hash for
// every key), then the measured loop serves only the dense-phase variants
// — same fingerprints, different regime — so every entry starts stale and
// must be re-profiled, re-inspected and switched to ll while traffic
// flows.
//
// The steady-state reference is measured on a separate control engine
// warmed directly on the dense phase (it decides ll natively, same
// engine shape, same recalibration knobs), so the target is independent
// of whether the measured engine ever recovers — a run that stays on
// the stale scheme reports its degraded p95 against an honest baseline
// and fails the gate, rather than grading itself against its own
// degraded tail.
//
// Custom metrics (recorded in BENCH_engine.json when b.N is large enough
// to measure them):
//
//   - recovery_jobs: jobs after the phase shift until a sliding window's
//     p95 latency first returns to within 25% of the steady state
//     (scripts/bench_compare.sh fails past RECOVERY_MAX_JOBS).
//   - recovery_p95_pct: that window's p95 as a percentage of steady-state
//     p95 (<= 125 when recovery happened inside the run;
//     scripts/bench_compare.sh fails past RECOVERY_MAX_PCT).
func BenchmarkDriftRecovery(b *testing.B) {
	const keys = 4
	ds := workloads.NewDriftStream(keys, 2, 1, 1.4, 0.5, 1)
	cfg := engine.Config{
		Workers:  1,
		Platform: core.DefaultPlatform(8),
		// Recover fast enough to watch within a benchtime run: re-profile
		// every 8 executions, default hysteresis of 2.
		RecalEvery: 8,
		// The drift detector measures direct executions only, and a
		// repeated hot key would be answered from its resident.
		DisableSimplify: true,
	}
	e, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	var dst []float64
	for i := 0; i < 4*engine.RecalSeedExecs; i++ { // decide + anchor every key on the sparse phase
		for _, l := range ds.Phases[0] {
			res, err := e.SubmitInto(l, dst)
			if err != nil {
				b.Fatal(err)
			}
			dst = res.Values
		}
	}
	stream := workloads.ZipfStream(ds.Phases[1], 4096, 1.4, 2)

	// Steady-state reference: the same dense traffic on the control
	// engine that never saw the sparse phase.
	const window = 64
	var steady time.Duration
	if b.N >= 8*window {
		control, err := engine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4*engine.RecalSeedExecs; i++ {
			for _, l := range ds.Phases[1] {
				if _, err := control.Submit(l); err != nil {
					b.Fatal(err)
				}
			}
		}
		const controlJobs = 512
		ref := make([]time.Duration, 0, controlJobs)
		var cdst []float64
		for i := 0; i < controlJobs; i++ {
			t0 := time.Now()
			res, err := control.SubmitInto(stream[i%len(stream)], cdst)
			if err != nil {
				b.Fatal(err)
			}
			cdst = res.Values
			ref = append(ref, time.Since(t0))
		}
		control.Close()
		steady = latP95(ref)
	}

	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, err := e.SubmitInto(stream[i%len(stream)], dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Values
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()

	if b.N < 8*window || steady <= 0 {
		return // too short to measure a trajectory (bench-smoke runs 1x)
	}
	bar := steady + steady/4 // within 25% of steady state
	recovered := -1
	var recoveredP95 time.Duration
	for at := 0; at+window <= len(lat); at += window / 4 {
		if p := latP95(lat[at : at+window]); p <= bar {
			recovered, recoveredP95 = at, p
			break
		}
	}
	if recovered < 0 {
		// Never recovered inside the run: report the full post-shift p95
		// so the gate fails loudly instead of silently skipping.
		recovered, recoveredP95 = len(lat), latP95(lat)
	}
	b.ReportMetric(float64(recovered), "recovery-jobs")
	b.ReportMetric(100*float64(recoveredP95)/float64(steady), "recovery%")
	if s := e.Stats(); s.SchemeSwitches < keys {
		b.Fatalf("only %d of %d entries switched scheme during the run", s.SchemeSwitches, keys)
	}
}

// BenchmarkTenantIsolation measures noisy-neighbor containment under the
// weighted-fair scheduler: a background tenant runs a closed loop of
// heavier reductions while a hot tenant floods ten concurrent closed
// loops of cheap ones — 10x the background's offered load. The metric is
// the background tenant's p95 latency under that pressure as a percent
// of its solo baseline ("isolation%"); bench_compare.sh gates it at
// TENANT_ISOLATION_MAX_PCT (150 by default). Under a single shared FIFO
// the background job would queue behind the whole hot backlog; DRR
// bounds its wait to one round regardless of how deep the hot tenant's
// own FIFO runs.
func BenchmarkTenantIsolation(b *testing.B) {
	cfg := engine.Config{
		Workers:  2,
		Platform: core.DefaultPlatform(8),
		Tenants: []engine.TenantConfig{
			{Name: "hot", Weight: 1},
			{Name: "bg", Weight: 1},
		},
	}
	// Disjoint pattern populations (different scales shift every
	// dimension) so cross-tenant fusion cannot blur the measurement.
	hotLoops := workloads.MixedSet(0.1)
	bgLoops := workloads.MixedSet(0.6)

	warm := func(e *engine.Engine, loops []*trace.Loop, tenant int) {
		for _, l := range loops {
			h, err := e.SubmitAsyncIntoTenant(l, nil, tenant)
			if err != nil {
				b.Fatal(err)
			}
			h.Wait()
		}
	}
	const minN = 64

	// Solo baseline: the background tenant alone on an identical engine.
	var solo time.Duration
	if b.N >= minN {
		ctrl, err := engine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bgIdx := ctrl.TenantIndex("bg")
		warm(ctrl, bgLoops, bgIdx)
		const soloJobs = 256
		ref := make([]time.Duration, 0, soloJobs)
		var dst []float64
		for i := 0; i < soloJobs; i++ {
			t0 := time.Now()
			h, err := ctrl.SubmitAsyncIntoTenant(bgLoops[i%len(bgLoops)], dst, bgIdx)
			if err != nil {
				b.Fatal(err)
			}
			dst = h.Wait().Values
			ref = append(ref, time.Since(t0))
		}
		ctrl.Close()
		solo = latP95(ref)
	}

	e, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	hotIdx, bgIdx := e.TenantIndex("hot"), e.TenantIndex("bg")
	warm(e, hotLoops, hotIdx)
	warm(e, bgLoops, bgIdx)

	// Ten standing hot submitters against the background's single closed
	// loop: 10x offered load for the whole measured window.
	stop := make(chan struct{})
	var flood sync.WaitGroup
	var hotDone atomic.Uint64
	for k := 0; k < 10; k++ {
		flood.Add(1)
		go func(k int) {
			defer flood.Done()
			var dst []float64
			for i := k; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h, err := e.SubmitAsyncIntoTenant(hotLoops[i%len(hotLoops)], dst, hotIdx)
				if err != nil {
					return
				}
				dst = h.Wait().Values
				hotDone.Add(1)
			}
		}(k)
	}

	lat := make([]time.Duration, 0, b.N)
	var dst []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		h, err := e.SubmitAsyncIntoTenant(bgLoops[i%len(bgLoops)], dst, bgIdx)
		if err != nil {
			b.Fatal(err)
		}
		dst = h.Wait().Values
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	flood.Wait()

	if b.N < minN || solo <= 0 {
		return // bench-smoke runs 1x: no stable percentile to report
	}
	if hotDone.Load() == 0 {
		b.Fatal("hot tenant made no progress — the flood never pressured the scheduler")
	}
	b.ReportMetric(100*float64(latP95(lat))/float64(solo), "isolation%")
}

// latP95 returns the 95th-percentile latency of the (unsorted) sample.
func latP95(sample []time.Duration) time.Duration {
	s := append([]time.Duration(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (95*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// BenchmarkSchemeRunColdVsPooled isolates the buffer pool's effect on a
// single scheme execution, without the engine or decision layers.
func BenchmarkSchemeRunColdVsPooled(b *testing.B) {
	l := benchLoops()[0]
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reduction.Rep{}.Run(l, 8)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		ex := &reduction.Exec{Pool: reduction.NewBufferPool()}
		dst := reduction.Rep{}.RunInto(l, 8, ex, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = reduction.Rep{}.RunInto(l, 8, ex, dst)
		}
	})
}

// BenchmarkRemoteZipf is BenchmarkEngineZipf32Clients across the network:
// a reduxd server on loopback, a pooled client, and 32 concurrent
// submitters streaming the Zipf hot-key workload through the wire
// protocol. The "jobs/batch" metric is the measured batch-fusion
// occupancy — it must stay above 1, proving the decode → intern →
// SubmitAsync path preserves hot-key coalescing across the hop (the
// acceptance bar for the network subsystem). ns/op here includes
// encoding, loopback TCP, decoding and interning on top of execution.
func BenchmarkRemoteZipf(b *testing.B) {
	loops := workloads.HotKeySet(16, 0.5)
	stream := workloads.ZipfStream(loops, 4096, 1.4, 1)
	eng, err := engine.New(engine.Config{
		Workers:    4,
		Platform:   core.DefaultPlatform(8),
		QueueDepth: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{MaxInflightGlobal: 4096})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(10 * time.Second); err != nil {
			b.Error(err)
		}
		<-serveDone
	}()
	cl, err := client.Dial(ln.Addr().String(), client.Config{Conns: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	for _, l := range loops { // warm cache, pools and intern table
		if _, err := cl.Submit(l); err != nil {
			b.Fatal(err)
		}
	}
	warm := eng.Stats()
	const clients = 32
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []float64
			for {
				n := int(next.Add(1)) - 1
				if n >= b.N {
					return
				}
				res, err := cl.SubmitInto(stream[n%len(stream)], dst)
				if err != nil {
					b.Error(err)
					return
				}
				dst = res.Values
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	s := eng.Stats()
	if batches := s.Batches - warm.Batches; batches > 0 {
		b.ReportMetric(float64(s.Jobs-warm.Jobs)/float64(batches), "jobs/batch")
	}
}

// BenchmarkSimplifyOverlap measures the shared-subrange workload's members
// served both ways: direct per-member execution (the rep kernel once per
// member — what each member costs without the simplification layer)
// against one multi-member SegPlan: the segment analysis sweep, each
// distinct segment's partial sum once, and the per-member combine column.
// The cache is cold on every iteration, so the measured win is pure
// shared-segment reuse across the members. The engine plans one loop at a
// time and gets the same sharing from the verified sums its segment cache
// keeps between jobs.
// bench_compare.sh gates the per-job speedup at occupancy >= 4
// (SIMPLIFY_MIN_SPEEDUP, default 1.5x).
func BenchmarkSimplifyOverlap(b *testing.B) {
	const procs = 8
	pool := reduction.NewBufferPool()
	for _, occ := range []int{4, 8} {
		members := workloads.NewSharedSubrangeStream(occ, 0, 0.5, 21).Members
		l0 := members[0]
		segIters := reduction.DefaultSegIters(l0.NumIters(), procs)

		// The simplified path must agree with per-member direct execution
		// before its speed means anything. (Bit-for-bit equality against
		// the segment-association oracle is the reduction package's
		// property test; across associations only tolerance holds.)
		plan, err := reduction.BuildSegPlan(members, segIters)
		if err != nil {
			b.Fatal(err)
		}
		check := make([][]float64, len(members))
		for i := range check {
			check[i] = make([]float64, l0.NumElems)
		}
		plan.Run(procs, nil, nil, check)
		for m, l := range members {
			want := reduction.Rep{}.RunInto(l, 1, nil, nil)
			for e := range want {
				if d := math.Abs(check[m][e] - want[e]); d > 1e-9*math.Max(1, math.Abs(want[e])) {
					b.Fatalf("occ %d member %d element %d: simplified %g != direct %g", occ, m, e, check[m][e], want[e])
				}
			}
		}

		b.Run(fmt.Sprintf("direct-occ%d", occ), func(b *testing.B) {
			ex := &reduction.Exec{Pool: pool}
			dst := make([]float64, l0.NumElems)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, l := range members {
					reduction.Rep{}.RunInto(l, procs, ex, dst)
				}
			}
		})
		b.Run(fmt.Sprintf("simplified-occ%d", occ), func(b *testing.B) {
			ex := &reduction.Exec{Pool: pool}
			dsts := make([][]float64, len(members))
			for i := range dsts {
				dsts[i] = make([]float64, l0.NumElems)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := reduction.BuildSegPlanProcs(members, segIters, procs)
				if err != nil {
					b.Fatal(err)
				}
				p.Run(procs, ex, nil, dsts)
			}
		})
	}
}

// BenchmarkSegPlanWarm measures one singleton plan run against a warm
// segment cache, the two ways a hot loop's stream can behave. "unchanged"
// resubmits the same loop: every slot verifies and the member is a copy
// of the cache's resident result. "one-window-moved" alternates two loops
// that share 7/8 of their stream, so every run refreshes one slot,
// re-folds, and never arms the resident result — the stream that must
// pay nothing for it. Plans are built outside the timed loop; only Run is
// measured.
func BenchmarkSegPlanWarm(b *testing.B) {
	const procs = 8
	members := workloads.NewSharedSubrangeStream(2, 0, 0.5, 21).Members
	segIters := reduction.DefaultSegIters(members[0].NumIters(), procs)
	plans := make([]*reduction.SegPlan, len(members))
	for m, l := range members {
		var err error
		if plans[m], err = reduction.BuildSegPlanProcs([]*trace.Loop{l}, segIters, procs); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name  string
		plans []*reduction.SegPlan
	}{
		{"unchanged", plans[:1]},
		{"one-window-moved", plans},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ex := &reduction.Exec{Pool: reduction.NewBufferPool()}
			cache := reduction.NewSegCache(members[0], segIters)
			dsts := [][]float64{make([]float64, members[0].NumElems)}
			computed := 0
			for i := 0; i < 4; i++ { // seed the slots, arm what can be armed
				mode.plans[i%len(mode.plans)].Run(procs, ex, cache, dsts)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				computed += mode.plans[i%len(mode.plans)].Run(procs, ex, cache, dsts).Computed
			}
			b.StopTimer()
			if want := (len(mode.plans) - 1) * b.N; computed != want {
				b.Fatalf("computed %d segments over %d runs, want %d", computed, b.N, want)
			}
		})
	}
}

// BenchmarkSessionDelta measures what the streaming-session path saves
// over the stateless alternative for the same access-pattern churn. Both
// sub-benchmarks serve the identical workloads.DeltaStream step sequence
// — a long-lived loop absorbing a small subscript update batch per step
// and needing the new reduction after each one:
//
//   - delta: one OPEN_SESSION, then Session.Apply per step — the engine
//     re-accumulates only the elements each batch touched, in the
//     segments it landed in, and re-folds those elements.
//   - resubmit: the pre-session protocol — every step re-submits the
//     whole mutated loop (pre-built mirrors, so trace construction is
//     off the clock and the measured cost is pure engine work; decisions
//     are warmed first, so the cache is as kind to this path as it can be).
//
// The stream is the served one: the claims benchmark's session_remote
// shape (16 scattered deltas a batch, scale 0.5).
// scripts/bench_compare.sh gates the ratio at SESSION_MIN_SPEEDUP: if
// incremental re-reduction ever degenerates to full recompute cost, the
// session subsystem has lost its reason to exist.
func BenchmarkSessionDelta(b *testing.B) {
	const steps = 64
	ds := workloads.NewDeltaStream(steps, 16, 0.5, 11)
	cfg := engine.Config{Workers: 1, Platform: core.DefaultPlatform(8)}

	b.Run("delta", func(b *testing.B) {
		e, err := engine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		sess, res, err := e.OpenSession(ds.Base, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		dst := res.Values
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := sess.Apply(ds.Batches[i%steps], dst)
			if err != nil {
				b.Fatal(err)
			}
			dst = r.Values
		}
	})

	b.Run("resubmit", func(b *testing.B) {
		mirrors := make([]*trace.Loop, steps)
		for i := range mirrors {
			mirrors[i] = ds.MirrorAt(i + 1)
		}
		e, err := engine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		var dst []float64
		for _, m := range mirrors { // warm decisions and pools
			res, err := e.Submit(m)
			if err != nil {
				b.Fatal(err)
			}
			dst = res.Values
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.SubmitInto(mirrors[i%steps], dst)
			if err != nil {
				b.Fatal(err)
			}
			dst = res.Values
		}
	})
}

// BenchmarkDeltaApply isolates reduction.DeltaState.Apply under the claims
// benchmark's session_remote drive: four sessions over the bench's own
// streams take one batch each in turn, so an apply finds its state as
// cold as the other three sessions' traffic leaves it. A session whose
// stream runs out is re-opened off the clock, as the bench re-opens it.
func BenchmarkDeltaApply(b *testing.B) {
	const sessions, steps = 4, 16384
	streams := make([]*workloads.DeltaStream, sessions)
	states := make([]*reduction.DeltaState, sessions)
	open := func(i int) {
		var err error
		if states[i], err = reduction.NewDeltaState(streams[i].Base, 0, 1, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	for i := range streams {
		streams[i] = workloads.NewDeltaStream(steps, 16, 0.5, int64(1+i))
		open(i)
	}
	dst := make([]float64, streams[0].Base.NumElems)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i, step := n%sessions, n/sessions%steps
		if step == 0 && n >= sessions {
			b.StopTimer()
			open(i)
			b.StartTimer()
		}
		if _, err := states[i].Apply(streams[i].Batches[step], 1, nil, dst); err != nil {
			b.Fatal(err)
		}
	}
}
