package engine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// job is the engine's queue item and unit of execution: one submitted
// reduction with its result channel, executed on its own. A Hold marker
// (hold) rides the queue in the same item and carries no work.
type job struct {
	loop *trace.Loop
	fp   uint64
	dst  []float64
	done chan Result
	// tenant is the scheduler index of the tenant whose FIFO the job
	// queues on.
	tenant int
	// enq is when the job entered the submission queue; the dequeuing
	// worker reads it once to charge the queue_wait stage.
	enq time.Time

	// hold marks a job that carries no work: the worker that dequeues it
	// parks until the channel closes (Engine.Hold).
	hold chan struct{}
}

// runJob executes one dequeued job through the cached adaptive path:
// decision lookup, re-inspection of a stale entry, then one execution of
// the cached scheme (runDirect). A worker never answers from a resident:
// the Submit family and the server probe it before queueing.
func (e *Engine) runJob(w *workerCtx, j *job) {
	if j.hold != nil {
		<-j.hold
		return
	}
	t := e.tenants[0]
	if j.tenant > 0 && j.tenant < len(e.tenants) {
		t = e.tenants[j.tenant]
	}
	// Stage attribution: queue wait is the job's queue residency (jobs
	// hand-built by tests carry no enqueue time and charge nothing);
	// inspect is the lookup latency when the decision cache missed and
	// characterization ran inside it.
	var qw time.Duration
	if !j.enq.IsZero() {
		qw = time.Since(j.enq)
		e.stats.stages.Observe(obs.StageQueueWait, qw)
		t.queueWait.Observe(qw)
	}
	t.countJob()
	l := j.loop
	lookupStart := time.Now()
	entry, hit := e.lookup(l, j.fp)
	var insp time.Duration
	if !hit {
		insp = time.Since(lookupStart)
		e.stats.stages.Observe(obs.StageInspect, insp)
	}

	// A stale entry revalidates before executing, so this job already
	// runs whatever the re-inspection concluded (old scheme while
	// hysteresis holds, new scheme once confirmed).
	if e.recalEnabled() {
		if reinspected, switched := e.maybeReinspect(entry, l); reinspected {
			e.stats.recordRecal(switched)
			t.n[tenantRecalibrations].Add(1)
			if switched {
				t.n[tenantSchemeSwitches].Add(1)
			}
		}
	}

	e.runDirect(w, entry, j, hit, qw, insp)
}

// runDirect executes one job through the entry's cached scheme, arms the
// entry's resident when the loop's content came back (maybeArm), and
// feeds the measured cost to the drift detector.
func (e *Engine) runDirect(w *workerCtx, entry *Entry, j *job, hit bool, qw, insp time.Duration) {
	l := j.loop

	// The decision is snapshotted whole under the entry lock: a
	// recalibration switch may replace it while this job executes.
	entry.mu.Lock()
	scheme, name, why, decSeen := entry.scheme, entry.rec.Scheme, entry.rec.Why, entry.decGen
	entry.mu.Unlock()

	start := time.Now()
	out := scheme.RunInto(l, e.cfg.Platform.Procs, w.ex, j.dst)
	elapsed := time.Since(start)
	if hit {
		e.maybeArm(w, entry, l, out)
	}
	e.stats.stages.Observe(obs.StageExecute, elapsed)
	e.stats.record(name, hit, 0)
	j.done <- Result{
		Values:    out,
		Scheme:    name,
		Why:       why,
		CacheHit:  hit,
		Elapsed:   elapsed,
		QueueWait: qw,
		Inspect:   insp,
	}

	// Feed the drift detector last: the periodic re-profile it may run is
	// deliberately off the job's latency path — its result is already
	// sent.
	if e.recalEnabled() {
		e.recordCost(entry, l, elapsed, decSeen)
	}
}

// sizeDst returns dst resized to n when its capacity suffices, else a
// fresh array. Every path writes every element, so no zeroing is needed.
func sizeDst(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}
