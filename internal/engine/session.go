package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// ErrSessionClosed reports a delta application against a session that
// was closed (or evicted by the server's session store). The caller
// never gets a stale sum — the only recovery is re-opening.
var ErrSessionClosed = errors.New("engine: session closed")

// Session is a server-resident streaming reduction: a loop registered
// once, then updated by delta batches whose rolling results follow each
// redirected reference with two exact updates (reduction.DeltaState).
// The open rides the worker queue like a one-shot job; an Apply runs on
// the caller's goroutine — a delta costs microseconds, less than the
// queue hand-off it would pay. Sessions are deliberately kept out of the
// adaptive machinery: no decision cache and — like
// simplified runs — no drift-detector cost samples, since an incremental
// apply's cost says nothing about the full loop's scheme.
//
// A Session serializes its own operations: concurrent Apply calls queue
// on the session mutex, and Close waits for the in-flight one, so a
// result can never mix two generations.
type Session struct {
	e      *Engine
	tenant int // scheduler index recorded at open; every apply is counted under it

	mu     sync.Mutex
	st     *reduction.DeltaState
	gen    uint64
	closed bool
}

// sessionWork is a session open riding the worker queue inside a job
// (job.sess). The worker computes and answers on done.
type sessionWork struct {
	s    *Session
	loop *trace.Loop // the loop to register
	dst  []float64
	done chan sessionOutcome
}

type sessionOutcome struct {
	res Result
	err error
}

// OpenSession registers l as a streaming session: a worker deep-copies
// the loop and reduces it sequentially into dst (reused when its
// capacity suffices, like SubmitInto). The returned Result carries
// SessionGen 1.
func (e *Engine) OpenSession(l *trace.Loop, dst []float64) (*Session, Result, error) {
	return e.OpenSessionTenant(l, dst, 0)
}

// OpenSessionTenant is OpenSession on behalf of a tenant (an index from
// TenantIndex; out-of-range degrades to the default tenant). The open
// queues on the tenant's FIFO, so it is scheduled under the same weights
// as one-shot jobs; it and every later Apply count toward the tenant's
// jobs and batches.
func (e *Engine) OpenSessionTenant(l *trace.Loop, dst []float64, tenant int) (*Session, Result, error) {
	if l == nil {
		return nil, Result{}, errors.New("engine: nil loop")
	}
	if l.NumElems <= 0 {
		return nil, Result{}, fmt.Errorf("engine: loop %q has non-positive NumElems", l.Name)
	}
	if tenant < 0 || tenant >= len(e.tenants) {
		tenant = 0
	}
	s := &Session{e: e, tenant: tenant}
	sw := &sessionWork{
		s:    s,
		loop: l,
		dst:  sizeDst(dst, l.NumElems),
		done: make(chan sessionOutcome, 1),
	}
	if err := e.enqueueSession(sw); err != nil {
		return nil, Result{}, err
	}
	out := <-sw.done
	if out.err != nil {
		return nil, Result{}, out.err
	}
	return s, out.res, nil
}

// Apply streams one delta batch into the session and reads the rolling
// reduction into dst (reused when its capacity suffices). An empty
// batch is a pure read. It runs on the calling goroutine, under the
// session mutex. Apply after Close (or eviction) returns
// ErrSessionClosed, after the engine's Close ErrClosed.
func (s *Session) Apply(deltas []reduction.RefDelta, dst []float64) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Result{}, ErrSessionClosed
	}
	e := s.e
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return Result{}, ErrClosed
	}
	dst = sizeDst(dst, s.st.Loop().NumElems)
	start := time.Now()
	stats, err := s.st.Apply(deltas, e.cfg.Platform.Procs, nil, dst)
	if err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	e.caller.stages.Observe(obs.StageExecute, elapsed)
	e.caller.recordSession(false, stats.Computed, stats.Reused)
	e.tenants[s.tenant].countJob()
	s.gen++
	return sessionResult(dst, s.gen, elapsed, 0), nil
}

// Close retires the session and frees its resident state. It waits for
// an in-flight Apply to finish first (the session mutex serializes
// them), so a concurrent caller either completes against live state or
// observes ErrSessionClosed — never a partial teardown. Close is
// idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.st = nil
	return nil
}

// Gen returns the session's generation: 1 after open, +1 per apply.
func (s *Session) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Bytes reports the session's resident footprint (0 once closed) — the
// figure the server's session store charges against its memory budget.
func (s *Session) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return 0
	}
	return s.st.Bytes()
}

// enqueueSession submits one session open to the worker queue, mirroring
// SubmitAsyncInto's close handling.
func (e *Engine) enqueueSession(sw *sessionWork) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	e.q.push(sw.s.tenant, &job{sess: sw, tenant: sw.s.tenant, enq: time.Now()})
	return nil
}

// runSession executes one session open on a worker: it builds the
// DeltaState (one sequential reduction), reads the initial reduction into the
// caller's destination and sets the generation to 1. Session results
// never feed lookup or recordCost — the drift-detector exclusion the
// simplified path also has, here by construction.
func (e *Engine) runSession(w *workerCtx, sw *sessionWork, qw time.Duration) {
	start := time.Now()
	st, err := reduction.NewDeltaState(sw.loop, 0, e.cfg.Platform.Procs, w.ex, sw.dst)
	if err != nil {
		sw.done <- sessionOutcome{err: err}
		return
	}
	elapsed := time.Since(start)
	w.stats.stages.Observe(obs.StageExecute, elapsed)
	w.stats.recordSession(true, st.Segments(), 0)
	// Nobody else holds the session before the open answers.
	sw.s.st, sw.s.gen = st, 1
	sw.done <- sessionOutcome{res: sessionResult(sw.dst, 1, elapsed, qw)}
}

// sessionResult is the Result of one session operation.
func sessionResult(values []float64, gen uint64, elapsed, qw time.Duration) Result {
	return Result{
		Values:     values,
		Scheme:     "session",
		Why:        "incremental delta over the resident result",
		BatchSize:  1,
		Elapsed:    elapsed,
		QueueWait:  qw,
		SessionGen: gen,
	}
}
