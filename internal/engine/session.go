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
// once, then updated by delta batches whose rolling results
// re-accumulate only the elements each batch touched
// (reduction.DeltaState). Session executions
// ride the same worker queue as one-shot jobs but are deliberately kept
// out of the adaptive machinery: no decision cache, no coalescing, and
// — like simplified runs — no drift-detector cost samples, since an
// incremental apply's cost says nothing about the full loop's scheme.
//
// A Session serializes its own operations: concurrent Apply calls queue
// on the session mutex, and Close waits for the in-flight one, so a
// result can never mix two generations.
type Session struct {
	e      *Engine
	tenant int // scheduler index recorded at open; every apply queues under it

	mu     sync.Mutex
	st     *reduction.DeltaState
	gen    uint64
	closed bool
}

// sessionWork is one session operation riding the worker queue inside a
// batch (batch.sess). The worker computes and answers on done.
type sessionWork struct {
	s        *Session
	loop     *trace.Loop // open only: the loop to register
	segIters int         // open only: 0 picks the default width
	deltas   []reduction.RefDelta
	dst      []float64
	open     bool
	done     chan sessionOutcome
}

type sessionOutcome struct {
	res Result
	err error
}

// OpenSession registers l as a streaming session: a worker deep-copies
// the loop, computes every segment's partial sum, and combines the
// initial reduction into dst (reused when its capacity suffices, like
// SubmitInto). segIters <= 0 picks the session default width, derived
// from the loop (reduction.DeltaStateBytes states the rule). The
// returned Result carries SessionGen 1.
func (e *Engine) OpenSession(l *trace.Loop, segIters int, dst []float64) (*Session, Result, error) {
	return e.OpenSessionTenant(l, segIters, dst, 0)
}

// OpenSessionTenant is OpenSession on behalf of a tenant (an index from
// TenantIndex; out-of-range degrades to the default tenant). The open
// and every later Apply queue on the tenant's FIFO, so resident sessions
// are scheduled under the same weights as one-shot jobs.
func (e *Engine) OpenSessionTenant(l *trace.Loop, segIters int, dst []float64, tenant int) (*Session, Result, error) {
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
		s:        s,
		loop:     l,
		segIters: segIters,
		dst:      sizeDst(dst, l.NumElems),
		open:     true,
		done:     make(chan sessionOutcome, 1),
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
// batch is a pure read. Apply after Close (or eviction) returns
// ErrSessionClosed.
func (s *Session) Apply(deltas []reduction.RefDelta, dst []float64) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Result{}, ErrSessionClosed
	}
	sw := &sessionWork{
		s:      s,
		deltas: deltas,
		dst:    sizeDst(dst, s.st.Loop().NumElems),
		done:   make(chan sessionOutcome, 1),
	}
	if err := s.e.enqueueSession(sw); err != nil {
		return Result{}, err
	}
	out := <-sw.done
	return out.res, out.err
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

// enqueueSession submits one session operation to the worker queue,
// mirroring SubmitAsyncInto's close handling. Session batches bypass the
// coalescer: they carry resident state, so there is nothing to fuse.
func (e *Engine) enqueueSession(sw *sessionWork) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	e.q.push(sw.s.tenant, &batch{sess: sw, tenant: sw.s.tenant, enq: time.Now()})
	return nil
}

// runSession executes one session operation on a worker: the open path
// builds the DeltaState (full compute), the delta path re-accumulates
// only the touched elements, on this worker alone. Both read into the
// caller's destination and bump the generation. Session results never
// feed lookup, recordCost or the coalescer — the drift-detector
// exclusion the simplified path also has, here by construction.
func (e *Engine) runSession(w *workerCtx, sw *sessionWork, qw time.Duration) {
	procs := e.cfg.Platform.Procs
	start := time.Now()
	var stats reduction.SegRunStats
	var err error
	if sw.open {
		sw.s.st, err = reduction.NewDeltaState(sw.loop, sw.segIters, procs, w.ex, sw.dst)
		if err == nil {
			stats.Computed = sw.s.st.Segments()
		}
	} else {
		stats, err = sw.s.st.Apply(sw.deltas, procs, w.ex, sw.dst)
	}
	if err != nil {
		sw.done <- sessionOutcome{err: err}
		return
	}
	elapsed := time.Since(start)
	w.stats.stages.Observe(obs.StageExecute, elapsed)
	w.stats.recordSession(sw.open, stats.Computed, stats.Reused)
	// The caller holds the session mutex across the whole round trip, so
	// this generation bump never races another operation on the session.
	sw.s.gen++
	sw.done <- sessionOutcome{res: Result{
		Values:     sw.dst,
		Scheme:     "session",
		Why:        "incremental delta re-reduction over resident segments",
		BatchSize:  1,
		Elapsed:    elapsed,
		QueueWait:  qw,
		SessionGen: sw.s.gen,
	}}
}
