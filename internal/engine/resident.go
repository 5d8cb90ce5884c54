package engine

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// This file holds the engine's one reuse unit: a hot loop's resident
// result. The paper amortizes its inspector over whole invocations of a
// loop, and the engine reuses at the same grain: a loop that comes back
// unchanged is answered with a copy of the result its own direct
// execution produced, whatever the operator.
//
// A direct execution on a decision-cache hit hashes its loop's segments
// (pattern.HashRefs over reduction.DefaultSegIters' cut) and compares
// them with the entry's previous direct run. When they are equal the
// content came back, and the run arms the entry's resident with a copy
// of its own output before answering; otherwise it only records the
// hashes. A first sight never hashes, and a stream whose content changes
// every job never arms.
//
// A resident never changes once published. Readers — ServeResident on a
// caller, serveResidentJob on a worker — take its pointer under
// entry.mu and verify it outside the lock: the fingerprint (the entry's
// key), every segment's sampled hash, then the iteration bounds and the
// subscripts against the retained ones (pattern.SameRefs). A re-arm
// publishes a new resident, so a reader never waits for a worker and one
// holding the old resident still reads its own loop's bits. A scheme
// switch (decGen) drops the resident and the recorded hashes; a direct
// run of another geometry drops the resident.
//
// Resident serves deliberately do not feed the drift detector's cost
// EWMA: a copy's cost says nothing about the cached scheme's fit.

const (
	// residentMaxBytes caps what one entry's resident keeps alive (see
	// residentBytes).
	residentMaxBytes = 4 << 20
	// residentScheme and residentWhy are what a job answered from a
	// resident reports.
	residentScheme = "simplify"
	residentWhy    = "resident result: every segment verified unchanged; one copy"
)

// resident is a hot loop's armed answer: the armed loop's geometry, its
// iteration bounds and subscripts (its own storage, retained), the
// sampled hash of each segment and the result vector its direct
// execution produced.
type resident struct {
	numElems, segIters int
	op                 trace.Op
	offs, refs         []int32
	hashes             []uint64
	values             []float64
}

// residentBytes is what arming l keeps resident: the result vector, the
// retained iteration bounds and subscripts, and one hash per segment.
func residentBytes(l *trace.Loop, segments int) int {
	return l.NumElems*8 + (l.NumIters()+1+l.TotalRefs())*4 + segments*8
}

// segHashes appends the sampled hash of each of l's segments to dst[:0].
func segHashes(dst []uint64, l *trace.Loop, segIters int) []uint64 {
	offs, refs := l.Flat()
	n := l.NumIters()
	dst = dst[:0]
	for lo := 0; lo < n; lo += segIters {
		dst = append(dst, pattern.HashRefs(refs[offs[lo]:offs[min(lo+segIters, n)]]))
	}
	return dst
}

// fits reports whether l has r's geometry.
func (r *resident) fits(l *trace.Loop) bool {
	return l.NumElems == r.numElems && l.Op == r.op && l.NumIters() == len(r.offs)-1
}

// answers reports whether r is l's result: the geometry fits, every
// segment's sampled hash equals the armed one, and the iteration bounds
// and subscripts equal the retained ones. A nil r answers nothing.
func (r *resident) answers(l *trace.Loop) bool {
	if r == nil || !r.fits(l) {
		return false
	}
	offs, refs := l.Flat()
	n := l.NumIters()
	for s, h := range r.hashes {
		lo := s * r.segIters
		if pattern.HashRefs(refs[offs[lo]:offs[min(lo+r.segIters, n)]]) != h {
			return false
		}
	}
	return pattern.SameRefs(r.offs, offs) && pattern.SameRefs(r.refs, refs)
}

// maybeArm runs after a direct execution of l on a decision-cache hit,
// under decision generation decSeen, produced out: when l's segment
// hashes equal the entry's previous direct run's, it arms the entry's
// resident with a copy of out, else it records the hashes for the next
// run to compare. It must run before out is handed to the job's client.
func (e *Engine) maybeArm(w *workerCtx, entry *cacheEntry, l *trace.Loop, out []float64, decSeen uint64) {
	if e.cfg.DisableSimplify || l.NumIters() == 0 {
		return
	}
	segIters := reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs)
	segments := (l.NumIters() + segIters - 1) / segIters
	if residentBytes(l, segments) > residentMaxBytes {
		return
	}
	w.hashes = segHashes(w.hashes, l, segIters)
	entry.mu.Lock()
	back := entry.decGen == decSeen && slices.Equal(entry.lastHashes, w.hashes)
	entry.lastHashes = append(entry.lastHashes[:0], w.hashes...)
	if entry.res != nil && !entry.res.fits(l) {
		entry.res = nil
	}
	entry.mu.Unlock()
	if !back {
		return
	}
	offs, refs := l.Flat()
	r := &resident{
		numElems: l.NumElems, segIters: segIters, op: l.Op,
		offs: offs, refs: refs,
		hashes: slices.Clone(w.hashes), values: slices.Clone(out),
	}
	entry.mu.Lock()
	armed := entry.decGen == decSeen
	if armed {
		entry.res = r
	}
	entry.mu.Unlock()
	if armed {
		w.stats.recordSegs(segments, 0)
	}
}

// serveResidentJob answers a dequeued job from its entry's resident with
// one copy into the job's destination; false means the resident does not
// answer the loop and the caller runs it direct.
func (e *Engine) serveResidentJob(w *workerCtx, entry *cacheEntry, j *job, hit bool, qw, insp time.Duration) bool {
	entry.mu.Lock()
	r := entry.res
	entry.mu.Unlock()
	start := time.Now()
	if !r.answers(j.loop) {
		return false
	}
	j.dst = sizeDst(j.dst, len(r.values))
	copy(j.dst, r.values)
	res := Result{Values: j.dst, Scheme: residentScheme, Why: residentWhy, CacheHit: hit,
		Elapsed: time.Since(start), QueueWait: qw, Inspect: insp}
	w.stats.stages.Observe(obs.StageExecute, res.Elapsed)
	// Account the job before waking its client: a client that reads Stats
	// right after its result must find its own job counted.
	w.stats.record(res.Scheme, hit)
	w.stats.recordSegs(0, len(r.hashes))
	j.done <- res
	return true
}

// ServeResident answers l on the calling goroutine when its decision-cache
// entry's resident answers it, the one serve that needs no queue or
// worker; false means nothing happened and the caller submits as usual.
// fp must be l.Fingerprint(); tenant is an index from TenantIndex. The
// Submit family calls it before queueing, and the network server calls
// it on its read loop before SubmitFingerprinted.
//
// The decision cache is only probed: a miss creates no entry and leaves
// the CLOCK ring as it was, a hit marks the entry as a worker's lookup
// would. The serve declines when the engine is closed, when the entry is
// stale (re-inspection runs on a worker), when it holds no resident, and
// when the resident does not answer l. Otherwise use is called with a
// Result whose Values alias the resident's vector: valid only inside the
// call, and never to be written. The job is counted exactly as a
// worker's resident serve counts it (the caller shard of Stats).
func (e *Engine) ServeResident(l *trace.Loop, fp uint64, tenant int, use func(Result)) bool {
	if e.cfg.DisableSimplify || l == nil {
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
	entry.mu.Lock()
	r := entry.res
	if entry.stale {
		r = nil
	}
	entry.mu.Unlock()

	start := time.Now()
	if !r.answers(l) {
		return false
	}
	res := Result{Values: r.values, Scheme: residentScheme, Why: residentWhy, CacheHit: true, Elapsed: time.Since(start)}
	if tenant < 0 || tenant >= len(e.tenants) {
		tenant = 0
	}
	e.tenants[tenant].countJob()
	e.caller.stages.Observe(obs.StageExecute, res.Elapsed)
	e.caller.record(res.Scheme, true)
	e.caller.recordSegs(0, len(r.hashes))
	use(res)
	return true
}
