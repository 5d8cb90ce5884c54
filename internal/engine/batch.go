package engine

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// job is one submitted reduction with its result channel.
type job struct {
	loop *trace.Loop
	dst  []float64
	done chan Result
}

// batch is the engine's unit of execution: one or more jobs over the same
// loop, fused so that pattern lookup, privatization and accumulation are
// paid once for all members. jobs[0] is the leader whose execution
// produces the result; the other members receive it through the
// reduction.Exec batch fan-out.
//
// ov holds overlap joiners: same-fingerprint jobs over distinct loop
// objects with the leader's iteration geometry. They cannot share the
// leader's execution (the fingerprint samples the trace, so distinct
// objects may hold distinct content), but they are candidates for the
// simplified plan — the segment analysis finds whatever subrange content
// they do share and executes the batch as one set of partial sums.
type batch struct {
	fp uint64
	// tenant is the scheduler index of the tenant whose FIFO the batch
	// queues on; all members share it (fusion is tenant-scoped).
	tenant int
	// allowOv admits overlap joiners; set at registration when the engine
	// has simplification enabled and the leader is an add reduction.
	allowOv bool
	// enq is when the batch entered the submission queue; the dequeuing
	// worker reads it once to charge the queue_wait stage.
	enq time.Time

	mu     sync.Mutex
	sealed bool
	jobs   []*job
	ov     []*job

	// sess marks a streaming-session operation riding the queue alone:
	// the batch has no jobs and runBatch routes it to runSession before
	// any of the adaptive machinery runs.
	sess *sessionWork

	// hold marks a batch that carries no work: the worker that dequeues
	// it parks until the channel closes (Engine.Hold).
	hold chan struct{}
}

// tryJoin appends j to the batch if it is still open, has room, and its
// leader submitted the identical loop — or, on an overlap-admitting
// batch, a distinct loop with the leader's geometry (iteration shape,
// dimension, operator), which rides as an overlap member instead.
func (b *batch) tryJoin(j *job, maxBatch int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sealed || len(b.jobs)+len(b.ov) >= maxBatch {
		return false
	}
	lead := b.jobs[0].loop
	switch {
	case lead == j.loop:
		b.jobs = append(b.jobs, j)
	case b.allowOv && j.loop.Op == lead.Op &&
		j.loop.NumElems == lead.NumElems &&
		j.loop.NumIters() == lead.NumIters() &&
		j.loop.TotalRefs() == lead.TotalRefs():
		b.ov = append(b.ov, j)
	default:
		return false
	}
	return true
}

// seal closes the batch to joiners and returns its members and overlap
// members.
func (b *batch) seal() ([]*job, []*job) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sealed = true
	return b.jobs, b.ov
}

// coalescer tracks open batches by fingerprint so same-pattern jobs fuse.
// The coalescing window is a batch's queue residency: a batch accepts
// joiners from the moment it is registered until a worker dequeues and
// seals it. Under backlog (the regime where fusion pays) batches fill up;
// an idle engine executes singletons with no added latency. The map is
// sharded like the decision cache so registration never takes a global
// lock.
type coalescer struct {
	maxBatch int
	// allowOv marks new batches overlap-admitting when their leader is an
	// add reduction (the simplified plan's fast path).
	allowOv bool
	shards  []coalesceShard
	mask    uint64
}

// coKey names one open batch: the pattern fingerprint scoped by tenant,
// so same-pattern jobs from different tenants never fuse — fusion would
// let one tenant's jobs ride (and leak timing through) another tenant's
// scheduling share.
type coKey struct {
	fp     uint64
	tenant int
}

type coalesceShard struct {
	mu      sync.Mutex
	pending map[coKey]*batch
}

func newCoalescer(shardCount, maxBatch int, allowOv bool) *coalescer {
	c := &coalescer{
		maxBatch: maxBatch,
		allowOv:  allowOv,
		shards:   make([]coalesceShard, shardCount),
		mask:     uint64(shardCount - 1),
	}
	for i := range c.shards {
		c.shards[i].pending = make(map[coKey]*batch)
	}
	return c
}

// add fuses j into the tenant's open batch for fp when one exists, else
// registers a new batch. The boolean reports the new-batch case, where
// the caller must enqueue the returned batch; a fused join costs no
// queue slot. Sharding stays by fingerprint — tenants share the shard
// space but never a batch.
func (c *coalescer) add(fp uint64, tenant int, j *job) (*batch, bool) {
	key := coKey{fp: fp, tenant: tenant}
	s := &c.shards[fp&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.pending[key]; ok && b.tryJoin(j, c.maxBatch) {
		return b, false
	}
	b := &batch{fp: fp, tenant: tenant, jobs: []*job{j}, allowOv: c.allowOv && j.loop.Op == trace.OpAdd, enq: time.Now()}
	s.pending[key] = b
	return b, true
}

// remove unregisters b if it is still the open batch for its key. Workers
// call it after sealing, so a later same-fingerprint job starts a fresh
// batch instead of joining one already executing.
func (c *coalescer) remove(fp uint64, b *batch) {
	key := coKey{fp: fp, tenant: b.tenant}
	s := &c.shards[fp&c.mask]
	s.mu.Lock()
	if s.pending[key] == b {
		delete(s.pending, key)
	}
	s.mu.Unlock()
}

// runBatch executes one sealed batch through the cached adaptive path:
// decision lookup, one scheme execution with the members' destinations
// fanned out, one cost sample fed to the drift detector.
// A batch carrying overlap members (or a seed-worthy singleton) first
// offers itself to the simplification layer; when that declines, the
// leader group runs the cached scheme directly and each overlap group
// runs its own direct execution over the same decision.
func (e *Engine) runBatch(w *workerCtx, b *batch) {
	if b.hold != nil {
		<-b.hold
		return
	}
	t := e.tenants[0]
	if b.tenant > 0 && b.tenant < len(e.tenants) {
		t = e.tenants[b.tenant]
	}
	if b.sess != nil {
		var qw time.Duration
		if !b.enq.IsZero() {
			qw = time.Since(b.enq)
			w.stats.stages.Observe(obs.StageQueueWait, qw)
			t.queueWait.Observe(qw)
		}
		t.countBatch(1)
		e.runSession(w, b.sess, qw)
		return
	}
	jobs, ov := b.seal()
	if e.co != nil {
		e.co.remove(b.fp, b)
	}
	l := jobs[0].loop

	// Stage attribution: queue wait is the batch's queue residency up to
	// this seal (batches hand-built by tests carry no enqueue time and
	// charge nothing); inspect is the lookup latency when the decision
	// cache missed and characterization ran inside it.
	var qw time.Duration
	if !b.enq.IsZero() {
		qw = time.Since(b.enq)
		w.stats.stages.Observe(obs.StageQueueWait, qw)
		t.queueWait.Observe(qw)
	}
	t.countBatch(len(jobs) + len(ov))
	lookupStart := time.Now()
	entry, hit := e.lookup(l, b.fp)
	var insp time.Duration
	if !hit {
		insp = time.Since(lookupStart)
		w.stats.stages.Observe(obs.StageInspect, insp)
	}

	// A stale entry revalidates before executing, so this batch already
	// runs whatever the re-inspection concluded (old scheme while
	// hysteresis holds, new scheme once confirmed).
	if e.recalEnabled() {
		if reinspected, switched := e.maybeReinspect(entry, l); reinspected {
			w.stats.recordRecal(switched)
			t.n[tenantRecalibrations].Add(1)
			if switched {
				t.n[tenantSchemeSwitches].Add(1)
			}
		}
	}

	if e.trySimplified(w, entry, hit, jobs, ov, qw, insp) {
		return
	}
	e.runDirect(w, entry, jobs, hit, true, qw, insp)
	for _, g := range groupByLoop(ov) {
		// Overlap joiners that did not simplify reuse the cached decision
		// (their fingerprint led them here) but execute per loop object.
		e.runDirect(w, entry, g, true, false, qw, 0)
	}
}

// groupByLoop partitions jobs into groups of pointer-identical loops,
// preserving arrival order.
func groupByLoop(jobs []*job) [][]*job {
	var groups [][]*job
	for _, j := range jobs {
		placed := false
		for gi := range groups {
			if groups[gi][0].loop == j.loop {
				groups[gi] = append(groups[gi], j)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []*job{j})
		}
	}
	return groups
}

// runDirect executes one pointer-identical job group through the entry's
// cached scheme. feedCost gates the drift detector: only the batch's
// primary group feeds it, so one queue batch contributes one cost sample
// regardless of how many overlap groups fell back.
func (e *Engine) runDirect(w *workerCtx, entry *cacheEntry, jobs []*job, hit bool, feedCost bool, qw, insp time.Duration) {
	l := jobs[0].loop
	procs := e.cfg.Platform.Procs

	// The decision is snapshotted whole under the entry lock: a
	// recalibration switch may replace it while this batch executes.
	entry.mu.Lock()
	scheme, name, why, decSeen := entry.scheme, entry.rec.Scheme, entry.rec.Why, entry.decGen
	entry.mu.Unlock()

	// Size every member's destination; the scheme writes them all in one
	// execution. A caller-provided dst with sufficient capacity is reused,
	// so batched SubmitInto results alias the caller's array exactly like
	// unbatched ones.
	w.outs = w.outs[:0]
	for _, j := range jobs[1:] {
		w.outs = append(w.outs, sizeDst(j.dst, l.NumElems))
	}
	w.ex.BatchOut = w.outs

	start := time.Now()
	out := scheme.RunInto(l, procs, w.ex, jobs[0].dst)
	elapsed := time.Since(start)
	w.ex.BatchOut = nil
	w.stats.stages.Observe(obs.StageExecute, elapsed)

	res := Result{
		Scheme:    name,
		Why:       why,
		CacheHit:  hit,
		Elapsed:   elapsed,
		QueueWait: qw,
		Inspect:   insp,
		BatchSize: len(jobs),
	}

	w.stats.record(name, len(jobs), hit)

	for i, j := range jobs {
		r := res
		if i == 0 {
			r.Values = out
		} else {
			// Members fused into another job's execution reused its cached
			// decision by construction.
			r.Values = w.outs[i-1]
			r.CacheHit = true
		}
		j.done <- r
	}
	// Drop references to member destinations so the scratch slice does not
	// pin client arrays until the next batch.
	for i := range w.outs {
		w.outs[i] = nil
	}

	// Feed the drift detector last: the periodic re-profile it may run is
	// deliberately off the members' latency path — their results are
	// already sent.
	if feedCost && e.recalEnabled() {
		e.recordCost(entry, l, elapsed, decSeen)
	}
}

// sizeDst returns dst resized to n when its capacity suffices, else a
// fresh array. Every element is written by the batch fan-out, so no
// zeroing is needed.
func sizeDst(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}
