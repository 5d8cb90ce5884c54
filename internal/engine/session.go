package engine

import (
	"errors"
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
// The open and every Apply run on the caller's goroutine: an open is one
// sequential pass, a delta costs microseconds, and neither takes the
// worker queue. Sessions are deliberately kept out of the adaptive
// machinery: no decision cache and — like resident serves — no
// drift-detector cost samples, since an incremental apply's cost says
// nothing about the full loop's scheme.
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

// OpenSession registers a deep copy of l as a streaming session, reduced
// sequentially into dst (reused when its capacity suffices, like
// SubmitInto). The returned Result carries SessionGen 1.
func (e *Engine) OpenSession(l *trace.Loop, dst []float64) (*Session, Result, error) {
	return e.OpenSessionTenant(l, dst, 0)
}

// OpenSessionTenant is OpenSession on behalf of a tenant (an index from
// TenantIndex; out-of-range degrades to the default tenant). The open
// runs on the calling goroutine, like Apply: it takes no queue slot and
// no weighted turn, and it and every later Apply count toward the
// tenant's jobs.
func (e *Engine) OpenSessionTenant(l *trace.Loop, dst []float64, tenant int) (*Session, Result, error) {
	if err := CheckLoop(l); err != nil {
		return nil, Result{}, err
	}
	return e.AdoptSessionTenant(l.Clone(), dst, tenant)
}

// AdoptSessionTenant is OpenSessionTenant without the copy: the session
// takes l over, and the caller must not touch it again. The server hands
// over the loop it decoded an OPEN_SESSION into. The open holds off
// Close until it is registered, so an open racing Close either returns a
// live session or ErrClosed.
func (e *Engine) AdoptSessionTenant(l *trace.Loop, dst []float64, tenant int) (*Session, Result, error) {
	if err := CheckLoop(l); err != nil {
		return nil, Result{}, err
	}
	if tenant < 0 || tenant >= len(e.tenants) {
		tenant = 0
	}
	dst = sizeDst(dst, l.NumElems)
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return nil, Result{}, ErrClosed
	}
	start := time.Now()
	st, err := reduction.AdoptDeltaState(l, nil, dst)
	if err != nil {
		return nil, Result{}, err
	}
	elapsed := time.Since(start)
	e.stats.stages.Observe(obs.StageExecute, elapsed)
	e.stats.recordSession(true, st.Segments(), 0)
	e.tenants[tenant].countJob()
	return &Session{e: e, tenant: tenant, st: st, gen: 1}, sessionResult(dst, 1, elapsed), nil
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
	stats, err := s.st.Apply(deltas, 0, nil, dst)
	if err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	e.stats.stages.Observe(obs.StageExecute, elapsed)
	e.stats.recordSession(false, stats.Computed, stats.Reused)
	e.tenants[s.tenant].countJob()
	s.gen++
	return sessionResult(dst, s.gen, elapsed), nil
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

// sessionResult is the Result of one session operation.
func sessionResult(values []float64, gen uint64, elapsed time.Duration) Result {
	return Result{
		Values:     values,
		Scheme:     "session",
		Why:        "incremental delta over the resident result",
		Elapsed:    elapsed,
		SessionGen: gen,
	}
}
