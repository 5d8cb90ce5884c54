// Package engine implements a long-lived concurrent reduction service on
// top of the SmartApps adaptive pipeline. Where the lab's smartapp runtime
// models one application adapting its own reduction loop, the engine is the
// production-service shape of the same idea: many clients submit reduction
// jobs, a bounded worker pool runs each as its own execution, and the
// adaptive machinery is amortized across jobs the way the paper amortizes
// it across invocations:
//
//   - pattern characterization (package pattern) runs once per distinct
//     access-pattern signature; a sharded table keyed by
//     trace.Fingerprint (Table) lets repeated workloads skip
//     re-inspection without a global lock,
//   - a hot loop's resident result (resident.go) is armed by its own
//     direct execution once its content comes back, so a loop that
//     comes back unchanged is answered with one verified copy,
//   - SubmitAsync returns a Handle so clients can pipeline submissions;
//     Submit is SubmitAsync + Wait,
//   - the worker pool only executes: a loop whose resident verifies is
//     answered on the caller's goroutine (ServeResident; the Submit
//     family tries it first), and a session open and every delta run
//     on their caller (AdoptSessionTenant, Session.Apply), so a queued
//     job is a miss, a first sight or cold or changed work,
//   - privatization buffers are recycled through a shared
//     reduction.BufferPool, so steady-state jobs allocate ~nothing,
//   - every served answer is l.RunSequential()'s bits (CheckLoop refuses
//     mul; docs/ARCHITECTURE.md "Numerical contract"), whichever scheme,
//     path or Platform.Procs produced it,
//   - cached decisions are revalidated online (recal.go): a per-entry
//     drift detector (cost EWMA + periodic sampled re-profile) marks
//     entries whose workload shifted phase, and a hysteresis-gated
//     re-inspection switches them to the scheme the new pattern wants,
//   - counters live in one set (statShard) that workers and callers
//     record into alike, one short critical section per job; Stats()
//     snapshots it.
package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/reduction"
	"repro/internal/trace"

	"sync"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of jobs executed concurrently (the bounded
	// pool). Defaults to 4.
	Workers int
	// Platform is the host descriptor the engine serves on: its Procs is
	// the goroutine fan-out per job, and its Cfg.L2Bytes normalizes the
	// inspector's DIM metric and sizes the schemes' merge blocks. A zero
	// platform defaults to core.DefaultPlatform(8).
	Platform core.Platform
	// QueueDepth is the submission queue length in jobs (default
	// 2*Workers). With tenants configured the depth applies per tenant,
	// so one tenant's backlog cannot exhaust another tenant's queue slots.
	QueueDepth int
	// Tenants configures weighted multi-tenant scheduling. The default
	// tenant always exists at index 0 (weight 1 unless an entry named
	// "default" overrides it); each other entry adds a tenant whose jobs
	// queue separately and are drained by weighted deficit round robin.
	// Empty means single-tenant: one queue, and stats with no tenant
	// rows.
	Tenants []TenantConfig
	// MaxCacheEntries bounds the fingerprint table (Table) across all its
	// lock shards (default 1024), and so a daemon's interned loops; beyond
	// it the owning shard evicts by CLOCK. The lock-shard count follows
	// from it (tableFor).
	MaxCacheEntries int
	// DriftRatio is the recalibration cost-drift trigger: when a cache
	// entry's EWMA execution cost diverges from its decision-time anchor
	// by more than this ratio (either direction), the entry is marked
	// stale and re-inspected. Must be > 1; 0 means the default 1.5.
	DriftRatio float64
	// RecalEvery is how many direct executions of one entry pass between
	// sampled re-profiles of its pattern — the backstop drift trigger
	// for shifts the cost EWMA cannot see (pattern distance past the
	// re-characterization threshold marks the entry stale even when its
	// cost looks steady). Each re-profile is an O(refs/stride) inspector
	// pass on a worker, so the default is deliberately sparse: 0 means
	// 256. Lower it (the drift benchmark uses 8) when phase shifts are
	// frequent and stale-scheme latency matters more than re-profile
	// overhead.
	RecalEvery int
	// RecalConfirm is the hysteresis depth: a stale entry must be
	// re-inspected this many consecutive times with the same differing
	// recommendation before the scheme actually switches. 0 means the
	// default 2.
	RecalConfirm int
	// DisableRecal turns the recalibration subsystem off entirely: the
	// engine decides once per fingerprint and trusts the entry until
	// CLOCK eviction, the pre-recalibration behavior.
	DisableRecal bool
}

// Result is the outcome of one reduction job.
type Result struct {
	// Values is the reduction array. When SubmitInto was given a dst with
	// sufficient capacity, Values aliases it.
	Values []float64
	// Scheme is the executed implementation: one of the served schemes
	// (rep, ll, sel or hash; a loop the decision tree sends to lw is
	// served by ll), or "simplify" when the job was answered from its
	// entry's resident result.
	Scheme string
	// Why is the selection rationale recorded in the decision cache.
	// When the tree's pick is not served (lw), it carries the tree's
	// verdict and names the scheme that served it.
	Why string
	// CacheHit reports whether the job reused a cached decision instead
	// of re-running pattern inspection.
	CacheHit bool
	// BatchSize is never set: every job runs on its own, and the RESULT
	// frame no longer carries it. It waits for the next [benchmark] PR,
	// whose probes still set it.
	BatchSize int
	// Elapsed is the wall-clock execution time of the job (excluding
	// queueing).
	Elapsed time.Duration
	// QueueWait is how long the job sat in the submission queue before a
	// worker picked it up.
	QueueWait time.Duration
	// Inspect is the pattern-characterization time this job paid; zero
	// on a decision-cache hit.
	Inspect time.Duration
	// SessionGen is the streaming session's generation after the
	// operation that produced this result (1 at open, +1 per delta
	// apply); zero for one-shot jobs.
	SessionGen uint64
}

// Handle is a pending submission. It belongs to a single waiter.
type Handle struct {
	done     chan Result
	res      Result
	received bool
}

// Wait blocks until the job completes and returns its result. Jobs
// accepted before Close always complete (Close drains the queue), so Wait
// never fails. It may be called repeatedly.
func (h *Handle) Wait() Result {
	if !h.received {
		h.res = <-h.done
		h.received = true
	}
	return h.res
}

// Engine is a concurrent adaptive reduction service. Create with New,
// submit with Submit/SubmitInto/SubmitAsync from any number of goroutines,
// and Close when done.
type Engine struct {
	cfg  Config
	pool *reduction.BufferPool
	q    *drrQueue
	wg   sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	cache *Table

	tenants   []*tenantRT
	tenantIdx map[string]int

	// stats is the engine's one set of counters, recorded by workers and
	// by callers serving work themselves alike.
	stats statShard
}

// New starts an engine with cfg's worker pool running. It returns an
// error when the configuration is invalid: negative Workers,
// Platform.Procs, QueueDepth or MaxCacheEntries (zero always means "use
// the default"), or an out-of-range recalibration knob.
func New(cfg Config) (*Engine, error) {
	switch {
	case cfg.Workers < 0:
		return nil, fmt.Errorf("engine: negative Workers %d", cfg.Workers)
	case cfg.Platform.Procs < 0:
		return nil, fmt.Errorf("engine: negative Platform.Procs %d", cfg.Platform.Procs)
	case cfg.QueueDepth < 0:
		return nil, fmt.Errorf("engine: negative QueueDepth %d", cfg.QueueDepth)
	case cfg.MaxCacheEntries < 0:
		return nil, fmt.Errorf("engine: negative MaxCacheEntries %d", cfg.MaxCacheEntries)
	case cfg.DriftRatio < 0:
		return nil, fmt.Errorf("engine: negative DriftRatio %g", cfg.DriftRatio)
	case cfg.DriftRatio > 0 && cfg.DriftRatio <= 1:
		return nil, fmt.Errorf("engine: DriftRatio %g must be > 1 (it is a divergence ratio)", cfg.DriftRatio)
	case cfg.RecalEvery < 0:
		return nil, fmt.Errorf("engine: negative RecalEvery %d", cfg.RecalEvery)
	case cfg.RecalConfirm < 0:
		return nil, fmt.Errorf("engine: negative RecalConfirm %d", cfg.RecalConfirm)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Platform.Procs == 0 {
		cfg.Platform = core.DefaultPlatform(8)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.MaxCacheEntries == 0 {
		cfg.MaxCacheEntries = 1024
	}
	if cfg.DriftRatio == 0 {
		cfg.DriftRatio = 1.5
	}
	if cfg.RecalEvery == 0 {
		cfg.RecalEvery = 256
	}
	if cfg.RecalConfirm == 0 {
		cfg.RecalConfirm = 2
	}
	tenants, tenantIdx, err := buildTenants(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	weights := make([]int, len(tenants))
	for i, t := range tenants {
		weights[i] = t.weight
	}
	e := &Engine{
		cfg:       cfg,
		q:         newDRRQueue(weights, cfg.QueueDepth),
		tenants:   tenants,
		tenantIdx: tenantIdx,
		pool:      reduction.NewBufferPool(),
		cache:     tableFor(cfg.MaxCacheEntries),
		stats:     statShard{schemes: make(map[string]uint64)},
	}
	e.wg.Add(cfg.Workers)
	for range cfg.Workers {
		go e.worker()
	}
	return e, nil
}

// Table returns the fingerprint table a network server interns into.
func (e *Engine) Table() *Table { return e.cache }

// Procs returns the per-job goroutine fan-out the engine executes with
// (the serving platform's processor count). The network server reports it
// to clients in the HELLO frame.
func (e *Engine) Procs() int { return e.cfg.Platform.Procs }

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// Submit runs one reduction job and blocks until its result is ready.
// It is safe to call from many goroutines; the worker pool bounds how many
// jobs execute at once. Every served answer is l.RunSequential()'s bits
// and a mul loop is refused (ErrMulUnserved); the 2^26-reference bound
// only qualifies in-process add loops, which a resident never holds
// under its 4 MiB cap.
//
// A submitted loop must not change afterwards; build a new one instead
// (Clone, then edit the copy). A resubmission is checked against what
// the engine holds only at sampled positions: trace.Loop.Fingerprint's
// and, per segment, pattern.HashRefs'. Its iteration bounds and
// subscripts are otherwise compared with the retained ones, and the
// engine retains the loop's own storage, so for a loop edited in place
// through Flat that comparison is with itself. An in-place edit at a
// sampled position is recomputed on a worker; one anywhere else is
// answered with the previous content's resident result. A different loop
// object is compared in full, so an edited copy is always recomputed.
// A sealed loop (trace.Loop.Seal) whose own storage armed the resident
// skips the segment hashes, so once armed it is answered from the
// resident whatever was edited; only the network server seals, and only
// its private interned copies (Table.Canonical), which nothing edits.
func (e *Engine) Submit(l *trace.Loop) (Result, error) {
	return e.SubmitInto(l, nil)
}

// SubmitInto is Submit with a caller-provided destination array: when dst
// has capacity for the result it is reused, making steady-state submission
// allocation-free end to end.
func (e *Engine) SubmitInto(l *trace.Loop, dst []float64) (Result, error) {
	h, err := e.SubmitAsyncInto(l, dst)
	if err != nil {
		return Result{}, err
	}
	return h.Wait(), nil
}

// SubmitAsync enqueues one reduction job and returns a Handle without
// waiting for execution, so a client can pipeline many submissions before
// waiting. It blocks while the queue is at QueueDepth (backpressure),
// until a worker frees a slot. A verified resident hit never blocks on
// QueueDepth: it is answered before SubmitAsync returns (see
// SubmitAsyncIntoTenant).
func (e *Engine) SubmitAsync(l *trace.Loop) (*Handle, error) {
	return e.SubmitAsyncInto(l, nil)
}

// SubmitAsyncInto is SubmitAsync with a caller-provided destination array.
// The destination must not be read or reused until Wait returns.
func (e *Engine) SubmitAsyncInto(l *trace.Loop, dst []float64) (*Handle, error) {
	return e.SubmitAsyncIntoTenant(l, dst, 0)
}

// SubmitAsyncIntoTenant is SubmitAsyncInto on behalf of a tenant (an
// index from TenantIndex; out-of-range degrades to the default tenant).
// The job queues on the tenant's own FIFO.
//
// A loop whose resident verifies never queues: ServeResident answers it
// on the calling goroutine, the resident's vector is copied into dst, and
// the returned Handle is already complete — no queue slot, worker or
// channel, so such a hit never blocks on QueueDepth.
// Everything else goes through SubmitFingerprinted.
func (e *Engine) SubmitAsyncIntoTenant(l *trace.Loop, dst []float64, tenant int) (*Handle, error) {
	if err := CheckLoop(l); err != nil {
		return nil, err
	}
	fp := l.Fingerprint()
	if res, ok := e.ServeResident(l, fp, tenant); ok {
		res.Values = append(dst[:0], res.Values...)
		return &Handle{res: res, received: true}, nil
	}
	return e.SubmitFingerprinted(l, fp, dst, tenant)
}

// ErrMulUnserved is what CheckLoop wraps for a mul loop: mul rounds, so
// its bits would depend on the scheme's cut and Platform.Procs.
var ErrMulUnserved = errors.New("engine: mul is not served")

// CheckLoop rejects a loop the service does not run: nil, not positive
// in NumElems, or mul. Every entry point of a job calls it before
// touching any table: the Submit family and the session opens here, the
// network server right after it decodes a SUBMIT or an OPEN_SESSION.
func CheckLoop(l *trace.Loop) error {
	switch {
	case l == nil:
		return errors.New("engine: nil loop")
	case l.NumElems <= 0:
		return fmt.Errorf("engine: loop %q has non-positive NumElems", l.Name)
	case l.Op == trace.OpMul:
		return fmt.Errorf("%w: loop %q would answer with bits that depend on the scheme's cut", ErrMulUnserved, l.Name)
	}
	return nil
}

// SubmitFingerprinted is the queue-only submission: SubmitAsyncIntoTenant
// without the resident probe, for a caller that already holds
// l.Fingerprint() and has already tried ServeResident — the network
// server computes the fingerprint once to intern the submission and
// probes the resident itself — so neither is repeated here. fp
// must be exactly l.Fingerprint(): it keys the decision cache. The job
// always executes the entry's cached scheme on a worker, even when the
// entry's resident would answer it, so a test that needs direct
// executions of a repeated loop submits through here.
func (e *Engine) SubmitFingerprinted(l *trace.Loop, fp uint64, dst []float64, tenant int) (*Handle, error) {
	if err := CheckLoop(l); err != nil {
		return nil, err
	}
	if tenant < 0 || tenant >= len(e.tenants) {
		tenant = 0
	}
	j := &job{loop: l, fp: fp, dst: dst, done: make(chan Result, 1), tenant: tenant, enq: time.Now()}
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	e.q.push(tenant, j)
	return &Handle{done: j.done}, nil
}

// Hold parks one worker until the returned release is called: a
// work-free job joins the default tenant's FIFO, and the worker that
// dequeues it waits. On a one-worker engine everything enqueued after
// Hold returns therefore stays queued until release, which makes queue
// residency deterministic for tests that otherwise race a plug job's
// duration. Only queued work waits: a verified resident hit, a session
// open and a session delta run on their caller, so Hold parks none of
// them.
// release is idempotent and must be called before Close.
func (e *Engine) Hold() (release func(), err error) {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	hold := make(chan struct{})
	e.q.push(0, &job{hold: hold})
	return sync.OnceFunc(func() { close(hold) }), nil
}

// Close drains the queue, stops the workers and waits for them. Submit
// calls racing with Close either complete or return ErrClosed.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	e.q.close()
	e.closeMu.Unlock()
	e.wg.Wait()
}

// workerCtx is one worker's reusable scratch: the pooled execution
// context and the segment hashes maybeArm computes.
type workerCtx struct {
	ex     *reduction.Exec
	hashes []uint64
}

// worker owns one reusable execution context — over the engine's buffer
// pool, merge blocks sized for its platform — and serves jobs until the
// queue closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	ex := &reduction.Exec{
		Pool:            e.pool,
		MergeBlockElems: reduction.MergeBlockForCache(e.cfg.Platform.Cfg.L2Bytes, e.cfg.Platform.Procs),
	}
	w := &workerCtx{ex: ex}
	for j := e.q.pop(); j != nil; j = e.q.pop() {
		e.runJob(w, j)
	}
}
