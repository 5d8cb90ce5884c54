package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Pool implements server.Dispatcher; the assertion keeps the contract
// honest at compile time.
var _ server.Dispatcher = (*Pool)(nil)

// Dispatch places one interned submission on its rendezvous-ranked
// backend and returns a Waiter that carries the bounded failover policy:
// resubmit elsewhere on connection loss, retry-then-spill on BUSY, and
// server.ErrOverloaded when every avenue is exhausted (which the gateway
// front end answers as BUSY(BusyUpstream)). The timeline, when non-nil,
// accumulates the gateway legs (route, backend_wait, retry_backoff) and
// its TraceID rides the SUBMIT frame to the owning backend. fp is the
// loop's fingerprint as the front end interned it — the rendezvous key.
// The pooled client sees the same interned pointer on every repeat of a
// pattern, so after the first full SUBMIT each leg ships as a pattern
// handle (see internal/client) with no gateway-specific path. The tenant
// name is accepted but not forwarded: identity is HELLO-scoped and the
// pool's backend connections authenticate as the gateway itself, so
// per-tenant quotas bite at the gateway front door while backends see
// the aggregate under the default tenant (a documented limitation —
// forwarding would need per-job tenant attribution on the wire).
func (p *Pool) Dispatch(l *trace.Loop, fp uint64, dst []float64, tl *obs.Timeline, tenant string) (server.Waiter, error) {
	w := &waiter{
		p:        p,
		l:        l,
		dst:      dst,
		fp:       fp,
		busyLeft: p.cfg.BusyRetries,
		tl:       tl,
	}
	if tl != nil {
		w.traceID = tl.TraceID
	}
	if err := w.submitNext(); err != nil {
		return nil, err
	}
	return w, nil
}

// Stats aggregates engine statistics over every healthy backend
// (engine.Stats.Merge), fetched concurrently under LegTimeout. A
// backend that sits silent past the deadline is skipped and marked
// down — its fetch goroutine is abandoned to resolve whenever the
// connection finally answers or dies (at most one per timed-out
// request, so a wedged backend cannot accumulate them faster than
// stats are asked for). Stats fails only when no backend answered.
func (p *Pool) Stats() (engine.Stats, error) {
	var healthy []*backend
	for _, b := range p.snapshot() {
		if b.healthy.Load() && b.cl.Load() != nil {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 {
		return engine.Stats{}, fmt.Errorf("%w: no healthy backend for stats", server.ErrOverloaded)
	}
	type snap struct {
		s   engine.Stats
		err error
	}
	chans := make([]chan snap, len(healthy))
	for i, b := range healthy {
		ch := make(chan snap, 1)
		chans[i] = ch
		go func(b *backend) {
			s, err := b.cl.Load().Stats()
			ch <- snap{s, err}
		}(b)
	}
	deadline := time.NewTimer(p.cfg.LegTimeout)
	defer deadline.Stop()
	var agg engine.Stats
	answered := 0
	expired := false
	var firstErr error
	for i, ch := range chans {
		var sn snap
		var got bool
		if expired {
			// The shared deadline already fired (the timer delivers once);
			// take only answers that are already in hand.
			select {
			case sn = <-ch:
				got = true
			default:
			}
		} else {
			select {
			case sn = <-ch:
				got = true
			case <-deadline.C:
				expired = true
			}
		}
		if !got {
			p.markDown(healthy[i])
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: stats from %s: %w", healthy[i].addr, client.ErrTimeout)
			}
			continue
		}
		if sn.err != nil {
			if firstErr == nil {
				firstErr = sn.err
			}
			continue
		}
		agg.Merge(sn.s)
		answered++
	}
	if answered == 0 {
		return engine.Stats{}, fmt.Errorf("cluster: stats: %w", firstErr)
	}
	return agg, nil
}

// Procs reports the largest per-job fan-out any backend advertised in
// its HELLO — the figure the gateway forwards in its own HELLO.
func (p *Pool) Procs() int {
	procs := 1
	for _, b := range p.snapshot() {
		if n := int(b.procs.Load()); n > procs {
			procs = n
		}
	}
	return procs
}

// HelloFlags advertises the gateway capability bit.
func (p *Pool) HelloFlags() uint64 { return wire.HelloFlagGateway }

// waiter is one job's journey through the backend tier: at most one leg
// in flight at a time, with failover decided at Wait time (connection
// loss may surface only after pipelined submission succeeded). Reduction
// jobs are pure functions of the loop, so resubmitting a
// maybe-already-executed leg is harmless.
type waiter struct {
	p *Pool
	l *trace.Loop
	// dst is the preferred destination array, abandoned (set nil) if a
	// timed-out leg might still write into it.
	dst []float64
	fp  uint64
	// tried records backends whose leg failed, so failover moves on
	// instead of bouncing back. It is allocated lazily: the common
	// single-leg job never pays for the map.
	tried    map[*backend]bool
	busyLeft int

	// tl, when non-nil, receives the gateway-leg stage durations; traceID
	// is forwarded on every backend SUBMIT so both tiers record the job
	// under one ID. Dispatch and Wait touch the timeline sequentially
	// (the connection hands it off), so no locking is needed.
	tl      *obs.Timeline
	traceID uint64

	cur *backend
	h   *client.Handle
}

// markTried commits a backend to the exclusion set (allocated on first
// failure — the happy path never builds it).
func (w *waiter) markTried(b *backend) {
	if w.tried == nil {
		w.tried = make(map[*backend]bool, 2)
	}
	w.tried[b] = true
}

// failover gives up on the current backend and re-places the job.
func (w *waiter) failover() error {
	w.markTried(w.cur)
	if w.tl != nil {
		w.tl.Failovers++
	}
	return w.submitNext()
}

// submitNext places the job on the best remaining backend, marking each
// one that fails at submit time down. When no backend remains the job is
// exhausted: explicit backpressure instead of internal queueing. The
// whole placement — ranking plus however many submit attempts it takes —
// is charged to the route stage.
func (w *waiter) submitNext() error {
	start := time.Now()
	defer func() { w.tl.Add(obs.StageRoute, time.Since(start)) }()
	for {
		b := w.p.pick(w.fp, w.tried)
		if b == nil {
			w.p.exhausted.Add(1)
			return fmt.Errorf("%w: no backend available for %q", server.ErrOverloaded, w.l.Name)
		}
		if w.submitTo(b) {
			return nil
		}
		w.markTried(b)
	}
}

// submitTo attempts one leg on b, reporting success. Submit-time
// failures (dial refused, a connection already dead) mark b down for the
// prober to revive; a write that fails later resolves the leg with
// ErrConnLost, which Wait re-places.
func (w *waiter) submitTo(b *backend) bool {
	cl := b.cl.Load()
	if cl == nil {
		w.p.markDown(b)
		return false
	}
	h, err := cl.SubmitAsyncIntoTraced(w.l, w.dst, w.traceID)
	if err != nil {
		w.p.markDown(b)
		return false
	}
	b.jobs.Add(1)
	w.cur, w.h = b, h
	return true
}

// Wait resolves the job, running the failover policy until a result, a
// permanent job error, or exhaustion. Each leg's wait is bounded by
// LegTimeout so a half-open backend cannot pin the job (and the
// gateway admission slot holding it) forever.
func (w *waiter) Wait() (engine.Result, error) {
	for {
		legStart := time.Now()
		res, err := w.h.WaitTimeout(w.p.cfg.LegTimeout)
		w.tl.Add(obs.StageBackendWait, time.Since(legStart))
		switch {
		case err == nil:
			return res, nil

		case errors.Is(err, client.ErrBusy):
			// Affinity first: retry the same backend with backoff — the
			// pattern's cached decision and open batches live there. Spill
			// to the next-ranked backend only once the budget is spent.
			if w.busyLeft > 0 {
				w.busyLeft--
				w.p.busyRetries.Add(1)
				if w.tl != nil {
					w.tl.Retries++
				}
				// Clamp the exponent, not the product: a large retry budget
				// must saturate the backoff at 64x, not shift it into
				// overflow.
				exp := uint(w.p.cfg.BusyRetries - 1 - w.busyLeft)
				if exp > 6 {
					exp = 6
				}
				backoff := w.p.cfg.BusyBackoff << exp
				time.Sleep(backoff)
				w.tl.Add(obs.StageRetryWait, backoff)
				if w.submitTo(w.cur) {
					continue
				}
			} else {
				w.p.busySpills.Add(1)
			}
			w.busyLeft = w.p.cfg.BusyRetries
			if err := w.failover(); err != nil {
				return engine.Result{}, err
			}

		case errors.Is(err, client.ErrTimeout):
			// The backend sat silent past LegTimeout: half-open, wedged, or
			// unreachable without a TCP reset. Mark it down and re-place
			// the job — but stop sharing the destination array, because the
			// abandoned leg's response may still arrive and be decoded into
			// it (later legs allocate fresh).
			w.p.markDown(w.cur)
			w.p.timedOut.Add(1)
			w.dst = nil
			if err := w.failover(); err != nil {
				return engine.Result{}, err
			}

		case errors.Is(err, client.ErrConnLost) || errors.Is(err, client.ErrClosed):
			// The backend died (or was removed) with this job in flight.
			// Whether it executed is unknown and irrelevant — re-place the
			// job on the surviving backends.
			w.p.markDown(w.cur)
			w.p.rerouted.Add(1)
			if err := w.failover(); err != nil {
				return engine.Result{}, err
			}

		default:
			// A job-scoped server error is deterministic: the same loop
			// would fail anywhere. Surface it.
			return engine.Result{}, err
		}
	}
}
