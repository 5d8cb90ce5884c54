// Command reduxserve hammers the concurrent adaptive reduction engine with
// a stream of reduction jobs — the production-service shape of the paper's
// runtime: many clients, one long-lived engine, decisions and buffers
// amortized across jobs, and same-pattern jobs fused into batches.
//
// Two workload shapes are built in: the mixed regime stream (default,
// round-robin over six patterns) and a Zipf-skewed hot-key stream (-zipf)
// in which a few patterns dominate the traffic the way production services
// see repeats of a few hot requests — the regime where batch coalescing
// pays. It reports throughput, per-job latency percentiles, the batch
// occupancy histogram, the decision cache's hit/eviction counters, the
// scheme mix, and the allocation footprint per job; run with -nocoalesce
// to feel what batch fusion buys.
//
// By default the engine runs in-process. With -remote addr the same
// streams drive a reduxd server over the network instead (cmd/reduxd),
// exercising the wire protocol, the server's admission control and the
// loop interning that lets batch fusion engage across the hop; engine
// counters then come from the server via STATS frames. With -gateway N
// the binary spawns N reduxd backends on loopback behind an in-process
// reduxgw-style gateway and drives the load through the full routed
// path (client → gateway → pattern-affinity routing → backends) — the
// self-contained way to feel the cluster tier without juggling
// processes; engine-shape flags configure each spawned backend. With
// -json the final report is machine-readable JSON on stdout
// (scripts/loadtest.sh and the CI smoke test parse it).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"net"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// backend abstracts where jobs execute: the in-process engine or a remote
// reduxd. Both expose the engine-shaped submit call, the streaming
// session open, and a counters snapshot, so the streaming and reporting
// code is identical.
type backend interface {
	SubmitInto(l *trace.Loop, dst []float64) (engine.Result, error)
	OpenSession(l *trace.Loop) (sessionHandle, engine.Result, error)
	Stats() (engine.Stats, error)
	Close()
}

// sessionHandle is the common surface of engine.Session and
// client.Session the -sessions driver streams through.
type sessionHandle interface {
	Apply(deltas []reduction.RefDelta, dst []float64) (engine.Result, error)
	Close() error
	Gen() uint64
}

type localBackend struct{ e *engine.Engine }

func (b localBackend) SubmitInto(l *trace.Loop, dst []float64) (engine.Result, error) {
	return b.e.SubmitInto(l, dst)
}
func (b localBackend) OpenSession(l *trace.Loop) (sessionHandle, engine.Result, error) {
	s, res, err := b.e.OpenSession(l, 0, nil)
	if err != nil {
		return nil, res, err
	}
	return s, res, nil
}
func (b localBackend) Stats() (engine.Stats, error) { return b.e.Stats(), nil }
func (b localBackend) Close()                       { b.e.Close() }

// tenantBackend is one tenant's submit surface over the shared
// in-process engine — the local-mode counterpart of a HELLO-bound
// client. The engine is owned (and closed) by the localBackend the
// driver keeps for stats, so Close here is a no-op.
type tenantBackend struct {
	e      *engine.Engine
	tenant int
}

func (b tenantBackend) SubmitInto(l *trace.Loop, dst []float64) (engine.Result, error) {
	h, err := b.e.SubmitAsyncIntoTenant(l, dst, b.tenant)
	if err != nil {
		return engine.Result{}, err
	}
	return h.Wait(), nil
}
func (b tenantBackend) OpenSession(l *trace.Loop) (sessionHandle, engine.Result, error) {
	s, res, err := b.e.OpenSessionTenant(l, 0, nil, b.tenant)
	if err != nil {
		return nil, res, err
	}
	return s, res, nil
}
func (b tenantBackend) Stats() (engine.Stats, error) { return b.e.Stats(), nil }
func (b tenantBackend) Close()                       {}

type remoteBackend struct{ c *client.Client }

func (b remoteBackend) SubmitInto(l *trace.Loop, dst []float64) (engine.Result, error) {
	return b.c.SubmitInto(l, dst)
}
func (b remoteBackend) OpenSession(l *trace.Loop) (sessionHandle, engine.Result, error) {
	s, res, err := b.c.OpenSession(l)
	if err != nil {
		return nil, res, err
	}
	return remoteSession{s}, res, nil
}
func (b remoteBackend) Stats() (engine.Stats, error) { return b.c.Stats() }
func (b remoteBackend) Close()                       { b.c.Close() }

// remoteSession renames client.Session's SubmitDeltaInto to the
// engine-shaped Apply the driver calls.
type remoteSession struct{ s *client.Session }

func (r remoteSession) Apply(deltas []reduction.RefDelta, dst []float64) (engine.Result, error) {
	return r.s.SubmitDeltaInto(deltas, dst)
}
func (r remoteSession) Close() error { return r.s.Close() }
func (r remoteSession) Gen() uint64  { return r.s.Gen() }

// report is the run summary, printable as text or JSON.
type report struct {
	Mode         string            `json:"mode"`
	Remote       string            `json:"remote,omitempty"`
	Gateway      int               `json:"gateway_backends,omitempty"`
	Workers      int               `json:"workers,omitempty"`
	Procs        int               `json:"procs,omitempty"`
	Clients      int               `json:"clients"`
	Jobs         int               `json:"jobs"`
	Failures     int64             `json:"failures"`
	Verified     bool              `json:"verified"`
	ElapsedNs    int64             `json:"elapsed_ns"`
	JobsPerSec   float64           `json:"jobs_per_sec"`
	LatP50Ns     int64             `json:"latency_p50_ns"`
	LatP95Ns     int64             `json:"latency_p95_ns"`
	LatP99Ns     int64             `json:"latency_p99_ns"`
	LatMaxNs     int64             `json:"latency_max_ns"`
	JobsPerBatch float64           `json:"jobs_per_batch"`
	Occupancy    []uint64          `json:"batch_occupancy"`
	Sessions     int               `json:"sessions,omitempty"`
	ShadowChecks int64             `json:"shadow_checks,omitempty"`
	AllocPerJob  float64           `json:"client_alloc_bytes_per_job"`
	Schemes      map[string]uint64 `json:"schemes"`
	Tenants      []tenantReport    `json:"tenants,omitempty"`
	// Engine is what the engine's counters accumulated over the measured
	// phase. Its scalars are marshalled flat into the report, each under
	// the key its engine.StatsFields row declares.
	Engine engine.Stats `json:"-"`
}

// MarshalJSON emits the report's own fields followed by every engine
// counter of the stats schema.
func (r report) MarshalJSON() ([]byte, error) {
	type fields report // the same struct without this method
	b, err := json.Marshal(fields(r))
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1] // reopen the object
	for i := range engine.StatsFields {
		f := &engine.StatsFields[i]
		b = fmt.Appendf(b, ",%q:%d", f.Key, f.Get(&r.Engine))
	}
	return append(b, '}'), nil
}

// tenantReport is one tenant's slice of a -tenants run: what the driver
// offered under that identity and what the serving tier attributed.
type tenantReport struct {
	Name    string `json:"name"`
	Weight  int    `json:"weight"`
	Offered int    `json:"offered_jobs"`
	Jobs    uint64 `json:"server_jobs"`
	Busy    uint64 `json:"busy"`
}

func main() {
	workers := flag.Int("workers", 4, "concurrent batches in the engine's pool (local mode)")
	procs := flag.Int("procs", 8, "goroutines per reduction execution (local mode)")
	jobs := flag.Int("jobs", 400, "total jobs to submit")
	clients := flag.Int("clients", 8, "concurrent submitting goroutines")
	scale := flag.Float64("scale", 0.5, "workload size multiplier")
	zipf := flag.Bool("zipf", false, "serve the Zipf-skewed hot-key stream instead of the mixed round-robin")
	patterns := flag.Int("patterns", 24, "distinct patterns in the -zipf / -drift population")
	zipfS := flag.Float64("zipf-s", 1.4, "Zipf exponent for -zipf / -drift (must be > 1)")
	drift := flag.Bool("drift", false, "serve the phase-drifting Zipf stream: hot keys keep their fingerprints but shift pattern regime at phase boundaries")
	driftPhase := flag.Int("drift-phase", 0, "jobs per drift phase (0 = jobs/4)")
	driftRatio := flag.Float64("drift-ratio", 0, "engine cost-drift ratio marking cached decisions stale (local mode, 0 = default 1.5)")
	recalEvery := flag.Int("recal-every", 0, "engine executions between sampled re-profiles (local mode, 0 = default 256)")
	recalConfirm := flag.Int("recal-confirm", 0, "consecutive confirming re-inspections before a scheme switch (local mode, 0 = default 2)")
	norecal := flag.Bool("norecal", false, "disable online recalibration (local mode)")
	nocoalesce := flag.Bool("nocoalesce", false, "disable batch coalescing (engine MaxBatch 1: per-job execution path)")
	queue := flag.Int("queue", 0, "submission queue depth in batches (0 = 2*workers)")
	verify := flag.Bool("verify", true, "check a sample of results against the sequential reference")
	sessions := flag.Int("sessions", 0, "drive this many concurrent streaming sessions (OPEN_SESSION + SUBMIT_DELTA) instead of the one-shot job stream; -jobs counts delta batches across all sessions")
	remote := flag.String("remote", "", "drive a reduxd server at this address instead of an in-process engine")
	gateway := flag.Int("gateway", 0, "spawn this many in-process reduxd backends behind a pattern-routing gateway and drive it")
	conns := flag.Int("conns", 4, "client connection pool size (remote mode)")
	jsonOut := flag.Bool("json", false, "emit the final report as JSON on stdout")
	tenantsFlag := flag.String("tenants", "", "drive per-tenant job streams: name[:weight[:rate[:burst[:quota]]]],... — weights set each tenant's share of -jobs; remote mode binds each tenant's clients via HELLO, local mode runs a multi-tenant engine (rate/burst/quota are reduxd-side knobs, ignored by the driver)")
	flag.Parse()

	tspecs, err := server.ParseTenantSpecs(*tenantsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxserve:", err)
		os.Exit(2)
	}
	tenantMode := len(tspecs) > 0

	switch {
	case *procs < 1 || *procs > 64:
		fmt.Fprintf(os.Stderr, "reduxserve: -procs must be in [1,64], got %d\n", *procs)
		os.Exit(2)
	case *scale <= 0:
		fmt.Fprintf(os.Stderr, "reduxserve: -scale must be positive, got %g\n", *scale)
		os.Exit(2)
	case *jobs < 1 || *clients < 1 || *workers < 1 || *conns < 1:
		fmt.Fprintf(os.Stderr, "reduxserve: -jobs, -clients, -workers and -conns must be at least 1\n")
		os.Exit(2)
	case (*zipf || *drift) && (*patterns < 1 || *zipfS <= 1):
		fmt.Fprintf(os.Stderr, "reduxserve: -zipf/-drift need -patterns >= 1 and -zipf-s > 1\n")
		os.Exit(2)
	case *zipf && *drift:
		fmt.Fprintf(os.Stderr, "reduxserve: -zipf and -drift are exclusive stream shapes\n")
		os.Exit(2)
	case *driftPhase < 0:
		fmt.Fprintf(os.Stderr, "reduxserve: -drift-phase must be non-negative, got %d\n", *driftPhase)
		os.Exit(2)
	case *gateway < 0:
		fmt.Fprintf(os.Stderr, "reduxserve: -gateway must be non-negative, got %d\n", *gateway)
		os.Exit(2)
	case *gateway > 0 && *remote != "":
		fmt.Fprintf(os.Stderr, "reduxserve: -gateway spawns its own backends; it cannot be combined with -remote\n")
		os.Exit(2)
	case *sessions < 0:
		fmt.Fprintf(os.Stderr, "reduxserve: -sessions must be non-negative, got %d\n", *sessions)
		os.Exit(2)
	case *sessions > 0 && (*zipf || *drift):
		fmt.Fprintf(os.Stderr, "reduxserve: -sessions is its own stream shape; it cannot be combined with -zipf or -drift\n")
		os.Exit(2)
	case *sessions > 0 && *gateway > 0:
		fmt.Fprintf(os.Stderr, "reduxserve: the gateway tier does not forward sessions; drive reduxd directly\n")
		os.Exit(2)
	case *sessions > *jobs:
		fmt.Fprintf(os.Stderr, "reduxserve: -sessions (%d) needs at least one delta batch each, but -jobs is %d\n", *sessions, *jobs)
		os.Exit(2)
	case tenantMode && (*zipf || *drift || *sessions > 0):
		fmt.Fprintf(os.Stderr, "reduxserve: -tenants is its own stream shape; it cannot be combined with -zipf, -drift or -sessions\n")
		os.Exit(2)
	case tenantMode && *gateway > 0:
		fmt.Fprintf(os.Stderr, "reduxserve: the gateway forwards jobs under the default identity; drive reduxd directly in tenant mode\n")
		os.Exit(2)
	case tenantMode && *patterns < 1:
		fmt.Fprintf(os.Stderr, "reduxserve: -tenants needs -patterns >= 1\n")
		os.Exit(2)
	}
	if *remote != "" {
		// Engine-shape flags configure the in-process engine only; in
		// remote mode the server was configured at reduxd startup, so an
		// explicitly-set one signals a misunderstanding — reject it
		// rather than silently benchmark a differently-shaped server.
		engineFlags := map[string]bool{
			"workers": true, "procs": true, "queue": true, "nocoalesce": true,
			"drift-ratio": true, "recal-every": true, "recal-confirm": true, "norecal": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if engineFlags[f.Name] {
				fmt.Fprintf(os.Stderr, "reduxserve: -%s configures the in-process engine; set it on reduxd in remote mode\n", f.Name)
				os.Exit(2)
			}
		})
	}

	// Build the pattern population and the job stream over it. loops is
	// the warmup population (phase 0 for the drift stream: later phases
	// must be discovered by recalibration, not pre-decided); verifyLoops
	// covers everything the stream can submit.
	var loops []*trace.Loop
	var stream []*trace.Loop
	var verifyLoops []*trace.Loop
	var tenantStreams [][]*trace.Loop
	var tenantJobs []int
	phaseLen := *driftPhase
	switch {
	case *sessions > 0:
		// Session mode builds per-session DeltaStreams in the measured
		// phase itself; there is no one-shot population to warm or verify.
	case tenantMode:
		// One Zipf-skewed stream per tenant over disjoint pattern
		// populations, each sized by the tenant's weight share of -jobs;
		// each population is warmed through its own tenant identity below.
		tenantJobs = tenantShares(tspecs, *jobs)
		tenantStreams = workloads.TenantMixStream(tenantJobs, *patterns, *scale, 1)
		seen := map[*trace.Loop]bool{}
		for _, ts := range tenantStreams {
			for _, l := range ts {
				if !seen[l] {
					seen[l] = true
					verifyLoops = append(verifyLoops, l)
				}
			}
		}
	case *zipf:
		loops = workloads.HotKeySet(*patterns, *scale)
		stream = workloads.ZipfStream(loops, *jobs, *zipfS, 1)
		verifyLoops = loops
	case *drift:
		if phaseLen == 0 {
			phaseLen = (*jobs + 3) / 4
		}
		nphases := (*jobs + phaseLen - 1) / phaseLen
		ds := workloads.NewDriftStream(*patterns, nphases, phaseLen, *zipfS, *scale, 1)
		loops = ds.Phases[0]
		stream = ds.Stream[:*jobs]
		for _, phase := range ds.Phases {
			verifyLoops = append(verifyLoops, phase...)
		}
	default:
		loops = workloads.MixedSet(*scale)
		stream = make([]*trace.Loop, *jobs)
		for i := range stream {
			stream[i] = loops[i%len(loops)]
		}
		verifyLoops = loops
	}
	refs := make(map[*trace.Loop][]float64, len(verifyLoops))
	if *verify {
		for _, l := range verifyLoops {
			refs[l] = l.RunSequential()
		}
	}

	ecfg := engine.Config{
		Workers:      *workers,
		Platform:     core.DefaultPlatform(*procs),
		QueueDepth:   *queue,
		DriftRatio:   *driftRatio,
		RecalEvery:   *recalEvery,
		RecalConfirm: *recalConfirm,
		DisableRecal: *norecal,
	}
	if *nocoalesce {
		ecfg.MaxBatch = 1
	}
	var be backend
	var tenantBEs []backend
	where := "in-process engine"
	switch {
	case *remote != "" && tenantMode:
		// One client per tenant: the HELLO binding is per connection, so
		// each tenant's stream needs its own pool.
		for _, ts := range tspecs {
			c, err := client.Dial(*remote, client.Config{Conns: *conns, Tenant: ts.Name})
			if err != nil {
				fmt.Fprintln(os.Stderr, "reduxserve:", err)
				os.Exit(1)
			}
			tenantBEs = append(tenantBEs, remoteBackend{c})
		}
		be = tenantBEs[0]
		for _, tb := range tenantBEs[1:] {
			defer tb.Close()
		}
		where = fmt.Sprintf("reduxd at %s under %d tenant identities", *remote, len(tspecs))
	case tenantMode:
		ecfg.Tenants = server.EngineTenants(tspecs)
		e, err := engine.New(ecfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reduxserve:", err)
			os.Exit(2)
		}
		for _, ts := range tspecs {
			tenantBEs = append(tenantBEs, tenantBackend{e, e.TenantIndex(ts.Name)})
		}
		be = localBackend{e}
		where = fmt.Sprintf("in-process engine with %d tenants", len(tspecs))
	case *remote != "":
		c, err := client.Dial(*remote, client.Config{Conns: *conns})
		if err != nil {
			fmt.Fprintln(os.Stderr, "reduxserve:", err)
			os.Exit(1)
		}
		be = remoteBackend{c}
		where = "reduxd at " + *remote
	case *gateway > 0:
		addr, stop, err := startGatewayStack(*gateway, ecfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reduxserve:", err)
			os.Exit(1)
		}
		defer stop()
		c, err := client.Dial(addr, client.Config{Conns: *conns})
		if err != nil {
			fmt.Fprintln(os.Stderr, "reduxserve:", err)
			os.Exit(1)
		}
		be = remoteBackend{c}
		where = fmt.Sprintf("gateway over %d in-process backends", *gateway)
	default:
		e, err := engine.New(ecfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reduxserve:", err)
			os.Exit(2)
		}
		be = localBackend{e}
	}
	defer be.Close()

	rep := report{
		Mode:    "mixed",
		Remote:  *remote,
		Gateway: *gateway,
		Clients: *clients,
		Jobs:    *jobs,
	}
	if *zipf {
		rep.Mode = fmt.Sprintf("zipf(s=%g, %d patterns)", *zipfS, *patterns)
	}
	if *drift {
		rep.Mode = fmt.Sprintf("drift(s=%g, %d patterns, %d-job phases)", *zipfS, *patterns, phaseLen)
	}
	if *sessions > 0 {
		rep.Mode = fmt.Sprintf("sessions(%d streams, %d deltas/batch)", *sessions, sessionDeltaBatch)
		rep.Sessions = *sessions
	}
	if tenantMode {
		rep.Mode = fmt.Sprintf("tenants(%d streams, %d patterns each)", len(tspecs), *patterns)
	}
	if *remote == "" {
		rep.Workers, rep.Procs = *workers, *procs
	}
	progressf := func(format string, args ...any) {
		// In -json mode stdout carries only the JSON document; narration
		// moves to stderr so pipelines stay parseable.
		w := os.Stdout
		if *jsonOut {
			w = os.Stderr
		}
		fmt.Fprintf(w, format, args...)
	}
	progressf("%s: %d jobs from %d clients, %s stream (coalesce=%v)\n",
		where, *jobs, *clients, rep.Mode, !*nocoalesce)

	// Warm the cache and pools with one pass over the pattern population
	// so the measured phase is the steady state a long-lived service runs
	// in. BUSY here means the server is loaded by someone else — retry,
	// same as the measured loop.
	for _, l := range loops {
		if _, err := submitWithBusyRetry(be, l, nil); err != nil {
			fmt.Fprintln(os.Stderr, "warmup:", err)
			os.Exit(1)
		}
	}
	// Tenant mode warms each tenant's own population through its own
	// identity, so decision-cache state lands under the right attribution
	// and rate-limited tenants pace their warmup like real traffic.
	for t, tb := range tenantBEs {
		warmed := map[*trace.Loop]bool{}
		for _, l := range tenantStreams[t] {
			if warmed[l] {
				continue
			}
			warmed[l] = true
			if _, err := submitWithBusyRetry(tb, l, nil); err != nil {
				fmt.Fprintf(os.Stderr, "warmup: tenant %s: %v\n", tspecs[t].Name, err)
				os.Exit(1)
			}
		}
	}

	// Snapshot counters after warmup so every reported figure covers the
	// measured phase only (the warmup pass is all misses and singletons).
	warm, err := be.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stats:", err)
		os.Exit(1)
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var submitted atomic.Int64
	var failures atomic.Int64
	var shadowChecks atomic.Int64
	// One shared log-bucketed histogram replaces the per-client latency
	// slices: recording is a few atomic adds, and memory stays fixed no
	// matter how many jobs the run drives (the old sorted-slice percentile
	// path grew with -jobs). Quantiles come from the bucket walk, with
	// bounded relative error instead of a full sort.
	var latHist obs.Histogram
	start := time.Now()
	var wg sync.WaitGroup
	if *sessions > 0 {
		base, extra := *jobs / *sessions, *jobs%*sessions
		for s := 0; s < *sessions; s++ {
			steps := base
			if s < extra {
				steps++
			}
			wg.Add(1)
			go func(s, steps int) {
				defer wg.Done()
				if !runSession(be, s, steps, *scale, *verify, &latHist, &shadowChecks) {
					failures.Add(1)
				}
			}(s, steps)
		}
	} else if tenantMode {
		// Each tenant runs its own closed loop over its own stream, so
		// the offered mix tracks the configured weights exactly and one
		// tenant's BUSY backoff never slows another's submissions.
		nG := *clients / len(tenantBEs)
		if nG < 1 {
			nG = 1
		}
		idxs := make([]atomic.Int64, len(tenantBEs))
		for t := range tenantBEs {
			for g := 0; g < nG; g++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					tb, ts := tenantBEs[t], tenantStreams[t]
					var dst []float64
					for {
						n := int(idxs[t].Add(1)) - 1
						if n >= len(ts) {
							break
						}
						l := ts[n]
						t0 := time.Now()
						res, err := submitWithBusyRetry(tb, l, dst)
						if err != nil {
							fmt.Fprintf(os.Stderr, "submit: tenant %s: %v\n", tspecs[t].Name, err)
							failures.Add(1)
							break
						}
						latHist.Observe(time.Since(t0))
						dst = res.Values
						if *verify && n < 4*nG && !matches(res.Values, refs[l]) {
							fmt.Fprintf(os.Stderr, "verify: tenant %s: %s diverged from sequential reference\n", tspecs[t].Name, l.Name)
							failures.Add(1)
							break
						}
					}
				}(t)
			}
		}
	} else {
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var dst []float64
				for {
					n := int(submitted.Add(1)) - 1
					if n >= *jobs {
						break
					}
					l := stream[n]
					t0 := time.Now()
					// Latency keeps accruing from t0 across BUSY retries, so
					// overload shows up in the tail rather than as failures.
					res, err := submitWithBusyRetry(be, l, dst)
					if err != nil {
						fmt.Fprintln(os.Stderr, "submit:", err)
						failures.Add(1)
						break
					}
					latHist.Observe(time.Since(t0))
					dst = res.Values
					if *verify && n < 4**clients && !matches(res.Values, refs[l]) {
						fmt.Fprintf(os.Stderr, "verify: %s diverged from sequential reference\n", l.Name)
						failures.Add(1)
						break
					}
				}
			}(c)
		}
	}
	wg.Wait()
	rep.ElapsedNs = int64(time.Since(start))

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	rep.Failures = failures.Load()
	rep.Verified = *verify && rep.Failures == 0

	now, err := be.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stats:", err)
		os.Exit(1)
	}
	s := now.Sub(warm)
	if snap := latHist.Snapshot(); snap.Count > 0 {
		rep.LatP50Ns = int64(snap.Quantile(0.50))
		rep.LatP95Ns = int64(snap.Quantile(0.95))
		rep.LatP99Ns = int64(snap.Quantile(0.99))
		rep.LatMaxNs = int64(snap.MaxNs)
	}
	rep.JobsPerSec = float64(*jobs) / (float64(rep.ElapsedNs) / 1e9)
	rep.Engine = s
	if s.Batches > 0 {
		rep.JobsPerBatch = float64(s.Jobs) / float64(s.Batches)
	}
	rep.Occupancy = s.BatchOccupancy
	rep.ShadowChecks = shadowChecks.Load()
	rep.AllocPerJob = float64(after.TotalAlloc-before.TotalAlloc) / float64(*jobs)
	rep.Schemes = s.Schemes
	if tenantMode {
		rows := map[string]engine.TenantStats{}
		for _, row := range s.Tenants {
			rows[row.Name] = row
		}
		for i, ts := range tspecs {
			row := rows[ts.Name]
			rep.Tenants = append(rep.Tenants, tenantReport{
				Name:    ts.Name,
				Weight:  ts.Weight,
				Offered: tenantJobs[i],
				Jobs:    row.Jobs,
				Busy:    row.Busy,
			})
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
	} else {
		printHuman(rep)
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "%d clients failed\n", rep.Failures)
		os.Exit(1)
	}
}

// sessionDeltaBatch is the delta count per SUBMIT_DELTA batch in
// -sessions mode, and shadowEvery is how many batches ride between
// shadow full-recompute checks (every session also checks its final
// step, so short streams still verify).
const (
	sessionDeltaBatch = 16
	shadowEvery       = 8
)

// runSession drives one streaming session end to end: open a
// deterministic DeltaStream over the backend, submit every batch, and
// shadow-verify the rolling result against a privately mirrored loop's
// from-scratch sequential reduction — the end-to-end version of the
// property the session test suites pin (the mirror is rebuilt by the
// driver, so a server that quietly dropped a delta or served a stale
// segment sum cannot agree with it). Returns false after printing the
// reason on any failure.
func runSession(be backend, id, steps int, scale float64, verify bool, latHist *obs.Histogram, shadowChecks *atomic.Int64) bool {
	ds := workloads.NewDeltaStream(steps, sessionDeltaBatch, scale, int64(1000+id))
	var sess sessionHandle
	res, err := withBusyRetry(func() (res engine.Result, err error) {
		sess, res, err = be.OpenSession(ds.Base)
		return res, err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "session %d: open: %v\n", id, err)
		return false
	}
	defer sess.Close()
	if verify && !matches(res.Values, ds.Base.RunSequential()) {
		fmt.Fprintf(os.Stderr, "session %d: initial reduction diverged from sequential reference\n", id)
		return false
	}
	mirror := ds.Base.Clone()
	dst := res.Values
	for i, batch := range ds.Batches {
		t0 := time.Now()
		r, err := withBusyRetry(func() (engine.Result, error) { return sess.Apply(batch, dst) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "session %d: delta %d: %v\n", id, i+1, err)
			return false
		}
		latHist.Observe(time.Since(t0))
		dst = r.Values
		workloads.ApplyDeltas(mirror, batch)
		if verify && (i%shadowEvery == shadowEvery-1 || i == len(ds.Batches)-1) {
			if !matches(r.Values, mirror.RunSequential()) {
				fmt.Fprintf(os.Stderr, "session %d: step %d diverged from shadow full recompute\n", id, i+1)
				return false
			}
			shadowChecks.Add(1)
		}
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "session %d: close: %v\n", id, err)
		return false
	}
	return true
}

// startGatewayStack boots n reduxd-shaped backends (each its own engine
// behind a server) on loopback listeners, plus a pattern-routing gateway
// in front of them, all in-process. It returns the gateway's dial
// address and a teardown that drains the gateway before the backends so
// no in-flight job is cut.
func startGatewayStack(n int, ecfg engine.Config) (string, func(), error) {
	type stack struct {
		eng  *engine.Engine
		srv  *server.Server
		done chan error
	}
	var backends []stack
	var addrs []string
	var pool *cluster.Pool
	var gwSrv *server.Server
	var gwDone chan error
	stop := func() {
		if gwSrv != nil {
			gwSrv.Shutdown(30 * time.Second)
			<-gwDone
		}
		if pool != nil {
			pool.Close()
		}
		for _, b := range backends {
			b.srv.Shutdown(30 * time.Second)
			<-b.done
			b.eng.Close()
		}
	}
	for i := 0; i < n; i++ {
		eng, err := engine.New(ecfg)
		if err != nil {
			stop()
			return "", nil, err
		}
		srv := server.New(eng, server.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			eng.Close()
			stop()
			return "", nil, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		backends = append(backends, stack{eng, srv, done})
		addrs = append(addrs, ln.Addr().String())
	}
	pool, err := cluster.New(cluster.Config{Backends: addrs})
	if err != nil {
		stop()
		return "", nil, err
	}
	gwSrv = server.NewWithDispatcher(pool, server.Config{MaxInflightGlobal: 4096})
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		return "", nil, err
	}
	gwDone = make(chan error, 1)
	go func() { gwDone <- gwSrv.Serve(gln) }()
	return gln.Addr().String(), stop, nil
}

// withBusyRetry runs call with exponential backoff on BUSY: the server's
// admission control (the session budget included) is pacing, not
// failure, so the load generator retries instead of dying. Only remote
// backends ever return ErrBusy.
func withBusyRetry[T any](call func() (T, error)) (T, error) {
	v, err := call()
	for backoff := time.Millisecond; errors.Is(err, client.ErrBusy); {
		time.Sleep(backoff)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
		v, err = call()
	}
	return v, err
}

// submitWithBusyRetry is SubmitInto under withBusyRetry.
func submitWithBusyRetry(be backend, l *trace.Loop, dst []float64) (engine.Result, error) {
	return withBusyRetry(func() (engine.Result, error) { return be.SubmitInto(l, dst) })
}

// printHuman renders the report in the traditional text form.
func printHuman(rep report) {
	fmt.Printf("\n%d jobs in %v  (%.0f jobs/s)\n", rep.Jobs,
		time.Duration(rep.ElapsedNs).Round(time.Millisecond), rep.JobsPerSec)
	fmt.Printf("job latency: p50 %v  p95 %v  p99 %v  max %v\n",
		time.Duration(rep.LatP50Ns).Round(time.Microsecond),
		time.Duration(rep.LatP95Ns).Round(time.Microsecond),
		time.Duration(rep.LatP99Ns).Round(time.Microsecond),
		time.Duration(rep.LatMaxNs).Round(time.Microsecond))
	e := rep.Engine
	fmt.Printf("batches: %d executed for %d jobs (%.2f jobs/batch, %d coalesced)\n",
		e.Batches, rep.Jobs, rep.JobsPerBatch, e.Coalesced)
	fmt.Print("batch occupancy:")
	for size, count := range rep.Occupancy {
		if count > 0 {
			fmt.Printf("  %dx:%d", size, count)
		}
	}
	fmt.Println()
	fmt.Printf("decision cache: %d entries (%d evictions), %d hits / %d misses (%.1f%% hit rate)\n",
		e.CacheEntries, e.CacheEvictions, e.CacheHits, e.CacheMisses,
		100*float64(e.CacheHits)/float64(e.CacheHits+e.CacheMisses))
	if e.Recalibrations > 0 || e.SchemeSwitches > 0 {
		fmt.Printf("recalibration: %d re-inspections, %d scheme switches\n", e.Recalibrations, e.SchemeSwitches)
	}
	if rep.Sessions > 0 {
		fmt.Printf("sessions: %d opened, %d delta batches, segments %d recomputed / %d reused, %d shadow checks\n",
			e.SessionOpens, e.SessionJobs, e.SessionSegsComputed, e.SessionSegsReused, rep.ShadowChecks)
	}
	if e.SimplifiedBatches > 0 || e.SimplifyFallbacks > 0 {
		fmt.Printf("simplification: %d batches (%d declined), segments %d computed / %d reused\n",
			e.SimplifiedBatches, e.SimplifyFallbacks, e.SegsComputed, e.SegsReused)
	}
	fmt.Printf("alloc: %.1f KB/job client-side\n", rep.AllocPerJob/1024)
	for _, t := range rep.Tenants {
		fmt.Printf("tenant %s (weight %d): offered %d jobs, server attributed %d, %d busy rejections\n",
			t.Name, t.Weight, t.Offered, t.Jobs, t.Busy)
	}
	fmt.Println("scheme mix:")
	names := make([]string, 0, len(rep.Schemes))
	for name := range rep.Schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-6s %d jobs\n", name, rep.Schemes[name])
	}
}

// tenantShares splits total jobs across tenants proportionally to their
// weights, by cumulative rounding so the shares sum to exactly total.
func tenantShares(specs []server.TenantSpec, total int) []int {
	var sumW int64
	for _, s := range specs {
		sumW += int64(s.Weight)
	}
	out := make([]int, len(specs))
	var cum int64
	prev := 0
	for i, s := range specs {
		cum += int64(s.Weight)
		end := int(int64(total) * cum / sumW)
		out[i] = end - prev
		prev = end
	}
	return out
}

func matches(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			return false
		}
	}
	return true
}
