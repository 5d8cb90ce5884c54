// Command reduxserve hammers the concurrent adaptive reduction engine with
// a closed-loop stream of reduction jobs — the production-service shape
// of the paper's runtime: many clients, one long-lived engine, decisions
// and buffers amortized across jobs, hot repeats answered from resident
// totals. The streams are the mixed regime round-robin (default), a
// Zipf-skewed hot-key stream (-zipf), its phase-drifting variant
// (-drift), per-tenant streams (-tenants) and streaming sessions
// (-sessions). Sampled results must carry the sequential reference's
// bits exactly: every stream is an add loop, and every add path answers
// with RunSequential's bits.
//
// The engine runs in-process by default; -remote drives a reduxd over
// the wire protocol, and -gateway N boots N daemons behind a gateway in
// this process (internal/tier) and drives the routed path. The report
// gives throughput, latency percentiles and client-side allocation, then
// the engine counters in the daemons' summary form
// (metrics.WriteSummary); -json prints it as JSON instead
// (scripts/loadtest.sh parses it).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/server"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// config is reduxserve's command line.
type config struct {
	workers, procs, jobs, clients, conns int
	patterns, driftPhase, sessions       int
	recalEvery, recalConfirm, queue      int
	gateway                              int
	scale, zipfS, driftRatio             float64
	zipf, drift, norecal                 bool
	verify, jsonOut                      bool
	remote, tenantsFlag                  string
	// tenants is -tenants parsed (validate fills it).
	tenants []server.TenantSpec
}

// register declares the flags on fs.
func (c *config) register(fs *flag.FlagSet) {
	fs.IntVar(&c.workers, "workers", 4, "concurrent batches in the engine's pool (local mode)")
	fs.IntVar(&c.procs, "procs", 8, "goroutines per reduction execution (local mode)")
	fs.IntVar(&c.jobs, "jobs", 400, "total jobs to submit")
	fs.IntVar(&c.clients, "clients", 8, "concurrent submitting goroutines")
	fs.Float64Var(&c.scale, "scale", 0.5, "workload size multiplier")
	fs.BoolVar(&c.zipf, "zipf", false, "serve the Zipf-skewed hot-key stream instead of the mixed round-robin")
	fs.IntVar(&c.patterns, "patterns", 24, "distinct patterns in the -zipf / -drift population")
	fs.Float64Var(&c.zipfS, "zipf-s", 1.4, "Zipf exponent for -zipf / -drift (must be > 1)")
	fs.BoolVar(&c.drift, "drift", false, "serve the phase-drifting Zipf stream: hot keys keep their fingerprints but shift pattern regime at phase boundaries")
	fs.IntVar(&c.driftPhase, "drift-phase", 0, "jobs per drift phase (0 = jobs/4)")
	fs.Float64Var(&c.driftRatio, "drift-ratio", 0, "engine cost-drift ratio marking cached decisions stale (local mode, 0 = default 1.5)")
	fs.IntVar(&c.recalEvery, "recal-every", 0, "engine executions between sampled re-profiles (local mode, 0 = default 256)")
	fs.IntVar(&c.recalConfirm, "recal-confirm", 0, "consecutive confirming re-inspections before a scheme switch (local mode, 0 = default 2)")
	fs.BoolVar(&c.norecal, "norecal", false, "disable online recalibration (local mode)")
	fs.IntVar(&c.queue, "queue", 0, "submission queue depth in batches (0 = 2*workers)")
	fs.BoolVar(&c.verify, "verify", true, "check a sample of results against the sequential reference")
	fs.IntVar(&c.sessions, "sessions", 0, "drive this many concurrent streaming sessions (OPEN_SESSION + SUBMIT_DELTA) instead of the one-shot job stream; -jobs counts delta batches across all sessions")
	fs.StringVar(&c.remote, "remote", "", "drive a reduxd server at this address instead of an in-process engine")
	fs.IntVar(&c.gateway, "gateway", 0, "spawn this many in-process reduxd backends behind a pattern-routing gateway and drive it")
	fs.IntVar(&c.conns, "conns", 4, "client connection pool size (remote mode)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the final report as JSON on stdout")
	fs.StringVar(&c.tenantsFlag, "tenants", "", "drive per-tenant job streams: name[:weight[:rate[:burst[:quota]]]],... — weights set each tenant's share of -jobs; remote mode binds each tenant's clients via HELLO, local mode runs a multi-tenant engine (rate/burst/quota are reduxd-side knobs, ignored by the driver)")
}

// engineFlags configure the in-process engine only: in remote mode the
// server was configured at reduxd startup, so setting one signals a
// misunderstanding.
var engineFlags = []string{"workers", "procs", "queue", "drift-ratio", "recal-every", "recal-confirm", "norecal"}

// validate parses -tenants and rejects inconsistent flags; fs reports
// which flags the command line set.
func (c *config) validate(fs *flag.FlagSet) error {
	var err error
	if c.tenants, err = server.ParseTenantSpecs(c.tenantsFlag); err != nil {
		return err
	}
	tenantMode := len(c.tenants) > 0
	switch {
	case c.procs < 1 || c.procs > 64:
		return fmt.Errorf("-procs must be in [1,64], got %d", c.procs)
	case c.scale <= 0:
		return fmt.Errorf("-scale must be positive, got %g", c.scale)
	case c.jobs < 1 || c.clients < 1 || c.workers < 1 || c.conns < 1:
		return errors.New("-jobs, -clients, -workers and -conns must be at least 1")
	case (c.zipf || c.drift) && (c.patterns < 1 || c.zipfS <= 1):
		return errors.New("-zipf/-drift need -patterns >= 1 and -zipf-s > 1")
	case c.zipf && c.drift:
		return errors.New("-zipf and -drift are exclusive stream shapes")
	case c.driftPhase < 0:
		return fmt.Errorf("-drift-phase must be non-negative, got %d", c.driftPhase)
	case c.gateway < 0:
		return fmt.Errorf("-gateway must be non-negative, got %d", c.gateway)
	case c.gateway > 0 && c.remote != "":
		return errors.New("-gateway spawns its own backends; it cannot be combined with -remote")
	case c.sessions < 0:
		return fmt.Errorf("-sessions must be non-negative, got %d", c.sessions)
	case c.sessions > 0 && (c.zipf || c.drift):
		return errors.New("-sessions is its own stream shape; it cannot be combined with -zipf or -drift")
	case c.sessions > 0 && c.gateway > 0:
		return errors.New("the gateway tier does not forward sessions; drive reduxd directly")
	case c.sessions > c.jobs:
		return fmt.Errorf("-sessions (%d) needs at least one delta batch each, but -jobs is %d", c.sessions, c.jobs)
	case tenantMode && (c.zipf || c.drift || c.sessions > 0):
		return errors.New("-tenants is its own stream shape; it cannot be combined with -zipf, -drift or -sessions")
	case tenantMode && c.gateway > 0:
		return errors.New("the gateway forwards jobs under the default identity; drive reduxd directly in tenant mode")
	case tenantMode && c.patterns < 1:
		return errors.New("-tenants needs -patterns >= 1")
	}
	if c.remote != "" {
		fs.Visit(func(f *flag.Flag) {
			if err == nil && slices.Contains(engineFlags, f.Name) {
				err = fmt.Errorf("-%s configures the in-process engine; set it on reduxd in remote mode", f.Name)
			}
		})
	}
	return err
}

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()
	if err := cfg.validate(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "reduxserve:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxserve:", err)
		if errors.As(err, new(configError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
	} else {
		printHuman(os.Stdout, rep)
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "%d clients failed\n", rep.Failures)
		os.Exit(1)
	}
}

// configError marks a run error as a configuration the engine rejected.
type configError struct{ error }

// report is the run summary, printable as text or JSON.
type report struct {
	Mode           string            `json:"mode"`
	Remote         string            `json:"remote,omitempty"`
	Gateway        int               `json:"gateway_backends,omitempty"`
	Workers        int               `json:"workers,omitempty"`
	Procs          int               `json:"procs,omitempty"`
	Clients        int               `json:"clients"`
	Jobs           int               `json:"jobs"`
	Failures       int64             `json:"failures"`
	Verified       bool              `json:"verified"`
	ElapsedNs      int64             `json:"elapsed_ns"`
	JobsPerSec     float64           `json:"jobs_per_sec"`
	LatP50Ns       int64             `json:"latency_p50_ns"`
	LatP95Ns       int64             `json:"latency_p95_ns"`
	LatP99Ns       int64             `json:"latency_p99_ns"`
	LatMaxNs       int64             `json:"latency_max_ns"`
	JobsPerBatch   float64           `json:"jobs_per_batch"`
	BatchOccupancy []uint64          `json:"batch_occupancy"`
	Sessions       int               `json:"sessions,omitempty"`
	ShadowChecks   int64             `json:"shadow_checks,omitempty"`
	AllocPerJob    float64           `json:"client_alloc_bytes_per_job"`
	Schemes        map[string]uint64 `json:"schemes"`
	Tenants        []tenantReport    `json:"tenants,omitempty"`
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

// backend is where one identity's jobs execute: the in-process engine
// or a remote tier through a pooled client. Stats reads the counters of
// the whole engine or tier.
type backend interface {
	SubmitInto(l *trace.Loop, dst []float64) (engine.Result, error)
	OpenSession(l *trace.Loop) (sessionHandle, engine.Result, error)
	Stats() (engine.Stats, error)
}

// sessionHandle is the common surface of engine.Session and
// client.Session the -sessions driver streams through.
type sessionHandle interface {
	Apply(deltas []reduction.RefDelta, dst []float64) (engine.Result, error)
	Close() error
}

// local submits to the in-process engine as one tenant (index 0, the
// default tenant, outside tenant mode) — the counterpart of a client
// bound to a tenant by HELLO.
type local struct {
	e      *engine.Engine
	tenant int
}

func (b local) SubmitInto(l *trace.Loop, dst []float64) (engine.Result, error) {
	h, err := b.e.SubmitAsyncIntoTenant(l, dst, b.tenant)
	if err != nil {
		return engine.Result{}, err
	}
	return h.Wait(), nil
}

func (b local) OpenSession(l *trace.Loop) (sessionHandle, engine.Result, error) {
	s, res, err := b.e.OpenSessionTenant(l, nil, b.tenant)
	if err != nil {
		return nil, res, err
	}
	return s, res, nil
}

func (b local) Stats() (engine.Stats, error) { return b.e.Stats(), nil }

// remote is a pooled client; its sessions apply deltas by SUBMIT_DELTA.
type remote struct{ *client.Client }

func (b remote) OpenSession(l *trace.Loop) (sessionHandle, engine.Result, error) {
	s, res, err := b.Client.OpenSession(l)
	if err != nil {
		return nil, res, err
	}
	return remoteSession{s}, res, nil
}

// remoteSession names client.Session's SubmitDeltaInto Apply.
type remoteSession struct{ *client.Session }

func (r remoteSession) Apply(deltas []reduction.RefDelta, dst []float64) (engine.Result, error) {
	return r.SubmitDeltaInto(deltas, dst)
}

// load is a run's job stream, cut per tenant: the untenanted stream is
// one tenant with the default identity. Session mode has no streams; it
// builds its delta streams as it drives them.
type load struct {
	mode    string
	names   []string        // the tenant identities ("" is the default tenant)
	streams [][]*trace.Loop // each tenant's jobs, in submission order
	// warm is each tenant's warm-up population. For the drift stream it is
	// phase 0 only: later phases must be discovered by recalibration, not
	// pre-decided.
	warm [][]*trace.Loop
}

// newLoad builds cfg's pattern population and the job streams over it.
func newLoad(cfg config) load {
	ld := load{names: []string{""}}
	switch {
	case cfg.sessions > 0:
		ld.mode = fmt.Sprintf("sessions(%d streams, %d deltas/batch)", cfg.sessions, sessionDeltaBatch)
	case len(cfg.tenants) > 0:
		// One Zipf-skewed stream per tenant over disjoint pattern
		// populations, each sized by the tenant's weight share of -jobs;
		// each tenant warms its own population through its own identity,
		// so decision-cache state lands under the right attribution.
		ld.mode = fmt.Sprintf("tenants(%d streams, %d patterns each)", len(cfg.tenants), cfg.patterns)
		ld.names = nil
		for _, ts := range cfg.tenants {
			ld.names = append(ld.names, ts.Name)
		}
		ld.streams = workloads.TenantMixStream(tenantShares(cfg.tenants, cfg.jobs), cfg.patterns, cfg.scale, 1)
		for _, s := range ld.streams {
			ld.warm = append(ld.warm, distinct(s))
		}
	case cfg.zipf:
		ld.mode = fmt.Sprintf("zipf(s=%g, %d patterns)", cfg.zipfS, cfg.patterns)
		loops := workloads.HotKeySet(cfg.patterns, cfg.scale)
		ld.streams = [][]*trace.Loop{workloads.ZipfStream(loops, cfg.jobs, cfg.zipfS, 1)}
		ld.warm = [][]*trace.Loop{loops}
	case cfg.drift:
		phaseLen := cfg.driftPhase
		if phaseLen == 0 {
			phaseLen = (cfg.jobs + 3) / 4
		}
		ld.mode = fmt.Sprintf("drift(s=%g, %d patterns, %d-job phases)", cfg.zipfS, cfg.patterns, phaseLen)
		nphases := (cfg.jobs + phaseLen - 1) / phaseLen
		ds := workloads.NewDriftStream(cfg.patterns, nphases, phaseLen, cfg.zipfS, cfg.scale, 1)
		ld.streams = [][]*trace.Loop{ds.Stream[:cfg.jobs]}
		ld.warm = [][]*trace.Loop{ds.Phases[0]}
	default:
		ld.mode = "mixed"
		loops := workloads.MixedSet(cfg.scale)
		stream := make([]*trace.Loop, cfg.jobs)
		for i := range stream {
			stream[i] = loops[i%len(loops)]
		}
		ld.streams = [][]*trace.Loop{stream}
		ld.warm = [][]*trace.Loop{loops}
	}
	return ld
}

// distinct returns the loops of s in first-seen order, once each.
func distinct(s []*trace.Loop) []*trace.Loop {
	seen := map[*trace.Loop]bool{}
	var out []*trace.Loop
	for _, l := range s {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// run drives cfg's load against its serving tier and reports the
// measured phase. Per-job failures are counted in the report; an error
// means the run could not start or read its counters.
func run(cfg config) (report, error) {
	ld := newLoad(cfg)
	rep := report{Mode: ld.mode, Remote: cfg.remote, Gateway: cfg.gateway, Clients: cfg.clients, Jobs: cfg.jobs, Sessions: cfg.sessions}
	if cfg.remote == "" {
		rep.Workers, rep.Procs = cfg.workers, cfg.procs
	}

	ecfg := engine.Config{
		Workers:      cfg.workers,
		Platform:     core.DefaultPlatform(cfg.procs),
		QueueDepth:   cfg.queue,
		DriftRatio:   cfg.driftRatio,
		RecalEvery:   cfg.recalEvery,
		RecalConfirm: cfg.recalConfirm,
		DisableRecal: cfg.norecal,
	}
	// One backend per identity: a HELLO binds a whole connection, so each
	// tenant's stream needs its own client.
	var bes []backend
	where := "in-process engine"
	if addr := cfg.remote; addr != "" || cfg.gateway > 0 {
		where = "reduxd at " + addr
		if cfg.gateway > 0 {
			// Deferred closes run gateway first, so no in-flight job is cut.
			var backends []string
			for range cfg.gateway {
				d, err := listenAndStart(func(ln net.Listener) (*tier.Tier, error) {
					return tier.StartDaemon(ln, ecfg, server.Config{})
				})
				if err != nil {
					return rep, err
				}
				defer d.Close()
				backends = append(backends, d.Addr)
			}
			gw, err := listenAndStart(func(ln net.Listener) (*tier.Tier, error) {
				return tier.StartGateway(ln, cluster.Config{Backends: backends}, server.Config{MaxInflightGlobal: 4096})
			})
			if err != nil {
				return rep, err
			}
			defer gw.Close()
			addr = gw.Addr
			where = fmt.Sprintf("gateway over %d in-process backends", cfg.gateway)
		}
		for _, name := range ld.names {
			cl, err := client.Dial(addr, client.Config{Conns: cfg.conns, Tenant: name})
			if err != nil {
				return rep, err
			}
			defer cl.Close()
			bes = append(bes, remote{cl})
		}
	} else {
		ecfg.Tenants = server.EngineTenants(cfg.tenants)
		e, err := engine.New(ecfg)
		if err != nil {
			return rep, configError{err}
		}
		defer e.Close()
		for _, name := range ld.names {
			bes = append(bes, local{e, e.TenantIndex(name)})
		}
	}
	// In -json mode stdout carries only the JSON document; narration
	// moves to stderr so pipelines stay parseable.
	progress := io.Writer(os.Stdout)
	if cfg.jsonOut {
		progress = os.Stderr
	}
	fmt.Fprintf(progress, "%s: %d jobs from %d clients, %s stream\n",
		where, cfg.jobs, cfg.clients, rep.Mode)

	// Warm the cache and pools with one pass over each tenant's pattern
	// population so the measured phase is the steady state a long-lived
	// service runs in.
	for t, warm := range ld.warm {
		for _, l := range warm {
			if _, err := withBusyRetry(func() (engine.Result, error) { return bes[t].SubmitInto(l, nil) }); err != nil {
				return rep, fmt.Errorf("warmup: %s%w", label(ld.names[t]), err)
			}
		}
	}
	// Snapshot counters after warmup so every reported figure covers the
	// measured phase only (the warmup pass is all misses and singletons).
	warm, err := bes[0].Stats()
	if err != nil {
		return rep, fmt.Errorf("stats: %w", err)
	}

	// Each stream's first checkBelow jobs are verified.
	perStream := max(cfg.clients/len(ld.names), 1)
	d := driver{verify: cfg.verify, refs: map[*trace.Loop][]float64{}, checkBelow: 4 * perStream}
	for _, stream := range ld.streams {
		for _, l := range stream[:min(len(stream), d.checkBelow)] {
			if _, ok := d.refs[l]; d.verify && !ok {
				d.refs[l] = l.RunSequential()
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	if cfg.sessions > 0 {
		for s := range cfg.sessions {
			steps := cfg.jobs / cfg.sessions
			if s < cfg.jobs%cfg.sessions {
				steps++
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.session(bes[0], s, steps, cfg.scale)
			}()
		}
	} else {
		// Each tenant runs its own closed loop over its own stream, so
		// the offered mix tracks the weights exactly and one tenant's BUSY
		// backoff never slows another's submissions.
		for t, stream := range ld.streams {
			next := new(atomic.Int64)
			for range perStream {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d.oneShot(bes[t], label(ld.names[t]), stream, next)
				}()
			}
		}
	}
	wg.Wait()
	rep.ElapsedNs = int64(time.Since(start))
	runtime.ReadMemStats(&after)

	now, err := bes[0].Stats()
	if err != nil {
		return rep, fmt.Errorf("stats: %w", err)
	}
	s := now.Sub(warm)
	rep.Failures = d.failures.Load()
	rep.Verified = cfg.verify && rep.Failures == 0
	if snap := d.lat.Snapshot(); snap.Count > 0 {
		rep.LatP50Ns = int64(snap.Quantile(0.50))
		rep.LatP95Ns = int64(snap.Quantile(0.95))
		rep.LatP99Ns = int64(snap.Quantile(0.99))
		rep.LatMaxNs = int64(snap.MaxNs)
	}
	rep.JobsPerSec = float64(cfg.jobs) / (float64(rep.ElapsedNs) / 1e9)
	rep.Engine = s
	if s.Batches > 0 {
		rep.JobsPerBatch = float64(s.Jobs) / float64(s.Batches)
	}
	rep.BatchOccupancy = s.BatchOccupancy
	rep.ShadowChecks = d.shadowChecks.Load()
	rep.AllocPerJob = float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.jobs)
	rep.Schemes = s.Schemes
	for i, ts := range cfg.tenants {
		row := engine.TenantStats{}
		if j := slices.IndexFunc(s.Tenants, func(r engine.TenantStats) bool { return r.Name == ts.Name }); j >= 0 {
			row = s.Tenants[j]
		}
		rep.Tenants = append(rep.Tenants, tenantReport{
			Name: ts.Name, Weight: ts.Weight, Offered: len(ld.streams[i]), Jobs: row.Jobs, Busy: row.Busy,
		})
	}
	return rep, nil
}

// listenAndStart boots a tier on a fresh loopback port.
func listenAndStart(start func(net.Listener) (*tier.Tier, error)) (*tier.Tier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return start(ln)
}

// label prefixes a tenant's diagnostics; the default identity has none.
func label(name string) string {
	if name == "" {
		return ""
	}
	return "tenant " + name + ": "
}

// driver is the measured phase's shared state: the sequential references
// of each stream's first checkBelow jobs, the latency histogram and the
// failure and shadow-check counts. One shared log-bucketed histogram keeps recording
// to a few atomic adds and memory fixed however many jobs run; quantiles
// carry bounded relative error.
type driver struct {
	verify                 bool
	refs                   map[*trace.Loop][]float64
	checkBelow             int
	lat                    obs.Histogram
	failures, shadowChecks atomic.Int64
}

// fail counts one client that stopped early, and says why.
func (d *driver) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	d.failures.Add(1)
}

// oneShot is one closed-loop client: it takes the stream's next job until
// the stream is spent. Latency accrues from the first submission across
// BUSY retries, so overload shows in the tail rather than as failures.
func (d *driver) oneShot(be backend, label string, stream []*trace.Loop, next *atomic.Int64) {
	var dst []float64
	for {
		n := int(next.Add(1)) - 1
		if n >= len(stream) {
			return
		}
		l := stream[n]
		t0 := time.Now()
		res, err := withBusyRetry(func() (engine.Result, error) { return be.SubmitInto(l, dst) })
		if err != nil {
			d.fail("submit: %s%v", label, err)
			return
		}
		d.lat.Observe(time.Since(t0))
		dst = res.Values
		if d.verify && n < d.checkBelow && !matches(res.Values, d.refs[l]) {
			d.fail("verify: %s%s diverged from sequential reference", label, l.Name)
			return
		}
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

// session drives one streaming session end to end: open a deterministic
// DeltaStream over the backend, submit every batch, and shadow-verify
// the rolling result against a privately mirrored loop's from-scratch
// sequential reduction — the end-to-end version of the property the
// session test suites pin (the mirror is rebuilt by the driver, so a
// server that quietly dropped a delta or served a stale segment sum
// cannot agree with it).
func (d *driver) session(be backend, id, steps int, scale float64) {
	ds := workloads.NewDeltaStream(steps, sessionDeltaBatch, scale, int64(1000+id))
	var sess sessionHandle
	res, err := withBusyRetry(func() (res engine.Result, err error) {
		sess, res, err = be.OpenSession(ds.Base)
		return res, err
	})
	if err != nil {
		d.fail("session %d: open: %v", id, err)
		return
	}
	defer sess.Close()
	if d.verify && !matches(res.Values, ds.Base.RunSequential()) {
		d.fail("session %d: initial reduction diverged from sequential reference", id)
		return
	}
	mirror := ds.Base.Clone()
	dst := res.Values
	for i, batch := range ds.Batches {
		t0 := time.Now()
		r, err := withBusyRetry(func() (engine.Result, error) { return sess.Apply(batch, dst) })
		if err != nil {
			d.fail("session %d: delta %d: %v", id, i+1, err)
			return
		}
		d.lat.Observe(time.Since(t0))
		dst = r.Values
		workloads.ApplyDeltas(mirror, batch)
		if d.verify && (i%shadowEvery == shadowEvery-1 || i == len(ds.Batches)-1) {
			if !matches(r.Values, mirror.RunSequential()) {
				d.fail("session %d: step %d diverged from shadow full recompute", id, i+1)
				return
			}
			d.shadowChecks.Add(1)
		}
	}
	if err := sess.Close(); err != nil {
		d.fail("session %d: close: %v", id, err)
	}
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

// printHuman renders the report as text: the driver's own figures, then
// the engine counters in the daemons' summary form.
func printHuman(w io.Writer, rep report) error {
	fmt.Fprintf(w, "\n%d jobs in %v  (%.0f jobs/s)\n", rep.Jobs,
		time.Duration(rep.ElapsedNs).Round(time.Millisecond), rep.JobsPerSec)
	fmt.Fprintf(w, "job latency: p50 %v  p95 %v  p99 %v  max %v\n",
		time.Duration(rep.LatP50Ns).Round(time.Microsecond),
		time.Duration(rep.LatP95Ns).Round(time.Microsecond),
		time.Duration(rep.LatP99Ns).Round(time.Microsecond),
		time.Duration(rep.LatMaxNs).Round(time.Microsecond))
	fmt.Fprintf(w, "%.2f jobs/batch, %.1f KB/job allocated client-side\n", rep.JobsPerBatch, rep.AllocPerJob/1024)
	if rep.Sessions > 0 {
		fmt.Fprintf(w, "sessions: %d shadow checks\n", rep.ShadowChecks)
	}
	for _, t := range rep.Tenants {
		fmt.Fprintf(w, "tenant %s: offered %d jobs\n", t.Name, t.Offered)
	}
	return metrics.WriteSummary(w, "", metrics.Snapshot{Engine: &rep.Engine})
}

// tenantShares splits total jobs across tenants proportionally to their
// weights, by cumulative rounding so the shares sum to exactly total.
func tenantShares(specs []server.TenantSpec, total int) []int {
	var sumW, cum int64
	for _, s := range specs {
		sumW += int64(s.Weight)
	}
	out := make([]int, len(specs))
	prev := 0
	for i, s := range specs {
		cum += int64(s.Weight)
		end := int(int64(total) * cum / sumW)
		out[i], prev = end-prev, end
	}
	return out
}

// matches reports whether got carries want's bits exactly: every stream
// the driver offers is an add loop, and every add path answers with
// RunSequential's bits (docs/ARCHITECTURE.md "Numerical contract").
func matches(got, want []float64) bool {
	return slices.EqualFunc(got, want, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	})
}
