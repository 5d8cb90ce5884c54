package server

import (
	"errors"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Dispatcher is where the connection loop sends decoded, interned
// submissions. It is the seam that lets reduxd and reduxgw share one
// front end: the daemon's dispatcher is the local engine, the gateway's
// routes onward to a pool of reduxd backends (internal/cluster). Either
// way the connection machinery — preamble, HELLO, admission control,
// interning, pipelined out-of-order responses, graceful drain — is this
// package's, written once.
type Dispatcher interface {
	// Dispatch starts one reduction job and returns a Waiter for its
	// result. The loop is canonical (interned) and must not be mutated; fp
	// is its Fingerprint, computed once when the pattern was interned (a
	// SUBMIT_REF carries it in its header), so neither the engine nor the
	// gateway's router hashes the loop a second time. dst, when non-nil, should receive the result values if it has the
	// capacity. Dispatch must not block on job completion — the read loop
	// calls it inline and pipelining depends on it returning promptly.
	// tl, when non-nil, is the job's stage timeline: the dispatcher
	// attributes its legs to it (engine stages for the daemon, routing
	// legs for the gateway) and forwards tl.TraceID across tiers. The
	// timeline is handed off, not shared — only the dispatch path and,
	// after Wait returns, the caller touch it.
	// tenant is the connection's HELLO-bound tenant name: the daemon
	// schedules the job under that tenant's weighted queue; a dispatcher
	// without per-tenant scheduling may ignore it.
	Dispatch(l *trace.Loop, fp uint64, dst []float64, tl *obs.Timeline, tenant string) (Waiter, error)
	// Stats snapshots the engine counters this dispatcher serves from (a
	// gateway returns the aggregate over its backends).
	Stats() (engine.Stats, error)
	// Procs is the per-job goroutine fan-out advertised in HELLO.
	Procs() int
	// HelloFlags returns the capability bits advertised in HELLO
	// (wire.HelloFlagGateway for a gateway, 0 for a daemon).
	HelloFlags() uint64
}

// Waiter resolves one dispatched job.
type Waiter interface {
	// Wait blocks until the job resolves, returning its result or the
	// error that ended it. It may be called from a goroutine other than
	// the dispatcher's.
	Wait() (engine.Result, error)
}

// ErrOverloaded marks a dispatch failure caused by exhaustion rather
// than a broken job: every avenue of execution was at capacity. The
// connection loop surfaces it to the client as BUSY(BusyUpstream) — a
// back-off-and-retry signal — instead of a job ERROR. Dispatchers wrap
// it (errors.Is) around capacity-exhaustion failures.
var ErrOverloaded = errors.New("server: overloaded")

// engineDispatcher is the daemon's dispatcher: submissions go straight
// into the local shared engine.
type engineDispatcher struct{ eng *engine.Engine }

func (d engineDispatcher) Dispatch(l *trace.Loop, fp uint64, dst []float64, tl *obs.Timeline, tenant string) (Waiter, error) {
	h, err := d.eng.SubmitFingerprinted(l, fp, dst, d.eng.TenantIndex(tenant))
	if err != nil {
		return nil, err
	}
	return engineWaiter{h, tl}, nil
}

func (d engineDispatcher) Stats() (engine.Stats, error) { return d.eng.Stats(), nil }
func (d engineDispatcher) Procs() int                   { return d.eng.Procs() }
func (d engineDispatcher) HelloFlags() uint64           { return 0 }

// residentDispatcher is the optional capability of a Dispatcher that can
// answer a job on the calling goroutine from resident state. The daemon's
// engine dispatcher has it; the gateway's routing dispatcher holds no
// resident state.
type residentDispatcher interface {
	// ServeEntry is engine.ServeEntry with the tenant by name.
	ServeEntry(entry *engine.Entry, l *trace.Loop, tenant string) (engine.Result, bool)
	// Table is the engine's fingerprint table, which the server interns into.
	Table() *engine.Table
}

func (d engineDispatcher) ServeEntry(entry *engine.Entry, l *trace.Loop, tenant string) (engine.Result, bool) {
	return d.eng.ServeEntry(entry, l, d.eng.TenantIndex(tenant))
}

func (d engineDispatcher) Table() *engine.Table { return d.eng.Table() }

// engineWaiter adapts engine.Handle (whose Wait cannot fail once the
// submission was accepted) to the Waiter interface, copying the
// engine-attributed stage durations onto the job's timeline.
type engineWaiter struct {
	h  *engine.Handle
	tl *obs.Timeline
}

func (w engineWaiter) Wait() (engine.Result, error) {
	res := w.h.Wait()
	w.tl.Add(obs.StageQueueWait, res.QueueWait)
	w.tl.Add(obs.StageInspect, res.Inspect)
	w.tl.Add(obs.StageExecute, res.Elapsed)
	return res, nil
}
