package engine

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// This file wires the algebraic simplification layer into the job path.
// A job whose geometry makes incremental re-reduction worthwhile seeds a
// segment cache on its decision-cache entry; later jobs of the pattern
// are analyzed into a segment decomposition (pattern.AnalyzeSegments via
// reduction.BuildSegPlan) against it, and when the decision boundary
// (adapt.RecommendSimplify) finds the uncached segments plus the combine
// column cheaper than a direct execution, the job runs as per-segment
// partial sums with every verified cached sum reused. A stream that
// mutates one window of an otherwise-stable loop therefore recomputes
// only the affected segments — and distinct loops sharing subranges
// share the sums of those subranges — while a loop that comes back
// unchanged is answered from the cache's resident result: one copy,
// after every slot verified.
//
// The cache claim protocol mirrors the entry's other mutable state: all
// segment fields live under entry.mu, and a segBusy claim grants one
// worker at a time exclusive use of the cache (a concurrent same-pattern
// job falls back to the direct path rather than wait). ServeResident's
// callers share a read claim instead: any number of them may answer from
// the resident total together, and a worker that finds readers declines
// exactly as it declines another worker's claim. A recalibration scheme
// switch bumps decGen; the claim compares it against the generation the
// cache was built under and drops stale sums, so a workload that drifted
// enough to change its scheme never reuses pre-drift partial sums.
//
// Simplified executions deliberately do not feed the drift detector's
// cost EWMA: their cost tracks overlap and cache warmth, not the cached
// scheme's fit, and one stray sample would poison the anchor the
// detector compares direct executions against. Content drift is instead
// handled inside the layer itself — every reuse is verified against the
// submitted subscripts, and repeated decision declines shut the analysis
// off (segMissLimit) until the entry's decision changes.

const (
	// segSeedAfter is how many jobs of a seed-worthy pattern must arrive
	// before the engine pays one simplified execution to fill the
	// entry's segment cache. The seed run costs about one direct
	// execution plus the analysis sweep; every later submission with
	// surviving content reuses its sums.
	segSeedAfter = 2
	// segMissLimit is how many consecutive declined analyses (cold or
	// drifted content) turn the layer off for an entry; a recalibration
	// scheme switch re-arms it.
	segMissLimit = 3
	// segBusy is segClaim's value while a worker holds the segment cache
	// exclusively.
	segBusy = -1
	// segCacheMaxBytes caps one entry's segment-cache footprint (sum
	// buffers plus retained subscript content).
	segCacheMaxBytes = 4 << 20
	// residentWhy is the rationale a job served from the segment cache's
	// resident result reports.
	residentWhy = "resident result: every cached segment verified unchanged; one copy"
)

// trySimplified offers a job to the simplification layer. It returns
// true when the job was fully executed (result delivered, stats
// recorded); false means the caller runs the direct path.
func (e *Engine) trySimplified(w *workerCtx, entry *cacheEntry, hit bool, j *job, qw, insp time.Duration) bool {
	if e.cfg.DisableSimplify {
		return false
	}
	l := j.loop
	if l.Op != trace.OpAdd || l.NumIters() == 0 {
		return false
	}
	procs := e.cfg.Platform.Procs
	segIters := reduction.DefaultSegIters(l.NumIters(), procs)
	segments := (l.NumIters() + segIters - 1) / segIters
	th := adapt.DefaultSimplifyThresholds()
	seedable := adapt.SimplifySeedWorthwhile(l.TotalRefs(), l.NumElems, segments, th) &&
		reduction.SegCacheBytes(l, segIters) <= segCacheMaxBytes

	// Claim the entry's segment cache. Everything that can decline
	// cheaply declines here, before the analysis sweep.
	entry.mu.Lock()
	if entry.segClaim != 0 {
		entry.mu.Unlock()
		return false
	}
	if entry.segGen != entry.decGen {
		// The decision switched: the cached sums belong to a workload
		// that no longer exists, and the decline counter re-arms with it.
		entry.segs = nil
		entry.segSeen, entry.segMiss = 0, 0
		entry.segGen = entry.decGen
	}
	if entry.segMiss >= segMissLimit {
		entry.mu.Unlock()
		return false
	}
	if entry.segs != nil && !entry.segs.Matches(l, segIters) {
		// The geometry moved on under a stable decision (possible when
		// distinct same-fingerprint objects alternate): start over.
		entry.segs = nil
	}
	warm := entry.segs != nil
	if !warm {
		if !seedable {
			entry.mu.Unlock()
			return false
		}
		entry.segSeen++
		if entry.segSeen < segSeedAfter {
			entry.mu.Unlock()
			return false
		}
		entry.segs = reduction.NewSegCache(l, segIters)
		entry.segGen = entry.decGen
	}
	cache := entry.segs
	entry.segClaim = segBusy
	entry.mu.Unlock()

	// A warm job first asks the cache for its resident result: when every
	// slot still verifies against the submitted loop the answer is one
	// copy, a lower bound on any execution, so there is nothing for the
	// analysis sweep or the cost model to decide. Any failed check falls
	// through to the planned path below.
	res := Result{Scheme: "simplify", CacheHit: hit, BatchSize: 1, QueueWait: qw, Inspect: insp}
	j.dst = sizeDst(j.dst, l.NumElems)
	if warm {
		start := time.Now()
		if cache.Serve(l, j.dst) {
			res.Why, res.Elapsed = residentWhy, time.Since(start)
			e.finishSimplified(w, entry, j, res, reduction.SegRunStats{Reused: segments})
			return true
		}
	}

	plan, err := reduction.BuildSegPlanProcs([]*trace.Loop{l}, segIters, procs)
	if err != nil {
		// More segments than a plan holds: the loop is not decomposable.
		e.releaseSeg(entry, false)
		w.stats.recordSimplify(false, 0, 0)
		return false
	}

	res.Why = "seeding segment cache for incremental re-reduction"
	if warm {
		in := adapt.SimplifyInput{
			Members:       plan.Analysis.Members,
			Segments:      plan.Analysis.Segments,
			Unique:        plan.Analysis.Unique,
			CachedTasks:   plan.CachedTasks(cache),
			RefsPerMember: l.TotalRefs(),
			NumElems:      l.NumElems,
			ConstRunFrac:  plan.Analysis.ConstRunFrac,
		}
		ok, rationale := adapt.RecommendSimplify(in, th)
		if !ok {
			e.releaseSeg(entry, false)
			w.stats.recordSimplify(false, 0, 0)
			return false
		}
		res.Why = rationale.String()
	}

	start := time.Now()
	st := plan.Run(procs, w.ex, cache, [][]float64{j.dst})
	res.Elapsed = time.Since(start)
	e.finishSimplified(w, entry, j, res, st)
	return true
}

// ServeResident answers l on the calling goroutine when its decision-cache
// entry's resident total verifies against it, the one serve that needs no
// queue or worker; false means nothing happened and the caller
// submits as usual. fp must be l.Fingerprint(); tenant is an index from
// TenantIndex. It is the one resident serve off a worker: the Submit
// family calls it before queueing, and the network server calls it on
// its read loop before SubmitFingerprinted.
//
// The decision cache is only probed: a miss creates no entry and leaves
// the CLOCK ring as it was, a hit marks the entry as a worker's lookup
// would. The serve declines when the engine is closed, when the entry is
// stale (re-inspection runs on a worker), when its segment state is
// absent, from another decision generation or of another geometry, when
// a worker holds the exclusive claim, and when any slot fails
// SegCache.Resident's checks. Otherwise use is called with a Result whose
// Values alias the resident total: valid only inside the call, and never
// to be written. The job is counted exactly as a worker's resident serve
// counts it (the caller shard of Stats).
func (e *Engine) ServeResident(l *trace.Loop, fp uint64, tenant int, use func(Result)) bool {
	if e.cfg.DisableSimplify || l == nil || l.Op != trace.OpAdd || l.NumIters() == 0 {
		return false
	}
	e.closeMu.RLock()
	closed := e.closed
	e.closeMu.RUnlock()
	if closed {
		return false
	}
	sh := e.cache.Shard(fp)
	sh.Lock()
	entry, ok := sh.Get(fp)
	sh.Unlock()
	if !ok {
		return false
	}
	segIters := reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs)
	entry.mu.Lock()
	cache := entry.segs
	if entry.stale || entry.segClaim == segBusy || cache == nil || entry.segGen != entry.decGen || !cache.Matches(l, segIters) {
		entry.mu.Unlock()
		return false
	}
	entry.segClaim++
	entry.mu.Unlock()
	defer func() {
		entry.mu.Lock()
		entry.segClaim--
		entry.mu.Unlock()
	}()

	start := time.Now()
	total, ok := cache.Resident(l)
	if !ok {
		return false
	}
	res := Result{Values: total, Scheme: "simplify", Why: residentWhy, CacheHit: true, BatchSize: 1, Elapsed: time.Since(start)}
	if tenant < 0 || tenant >= len(e.tenants) {
		tenant = 0
	}
	e.tenants[tenant].countJob()
	e.caller.stages.Observe(obs.StageExecute, res.Elapsed)
	e.caller.record(res.Scheme, true)
	e.caller.recordSimplify(true, 0, (l.NumIters()+segIters-1)/segIters)
	use(res)
	return true
}

// finishSimplified is the common tail of both simplified exits (the
// planned run and the resident serve): it returns the cache claim,
// charges the execute stage, records the job and answers it with j.dst.
func (e *Engine) finishSimplified(w *workerCtx, entry *cacheEntry, j *job, res Result, st reduction.SegRunStats) {
	e.releaseSeg(entry, true)
	w.stats.stages.Observe(obs.StageExecute, res.Elapsed)
	// Account the job before waking its client: a client that reads Stats
	// right after its result must find its own job counted.
	w.stats.record(res.Scheme, res.CacheHit)
	w.stats.recordSimplify(true, st.Computed, st.Reused)
	res.Values = j.dst
	j.done <- res
}

// releaseSeg returns the entry's segment-cache claim. A successful
// simplified run re-arms the decline counter; a decline counts toward
// segMissLimit and, at the limit, drops the cache so the entry stops
// paying for analyses that never win.
func (e *Engine) releaseSeg(entry *cacheEntry, success bool) {
	entry.mu.Lock()
	entry.segClaim = 0
	if success {
		entry.segMiss = 0
	} else {
		entry.segMiss++
		if entry.segMiss >= segMissLimit {
			entry.segs = nil
		}
	}
	if entry.segs != nil && entry.segGen != entry.decGen {
		entry.segs = nil
	}
	entry.mu.Unlock()
}
