package reduction

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/trace"
)

// A SegPlan is a simplified execution plan for a batch of
// same-fingerprint loops: instead of executing every member's full
// reference stream, the iteration space is cut into segments
// (pattern.AnalyzeSegments), each distinct segment content is
// accumulated into a partial-sum buffer exactly once, and every member
// folds its per-segment parts in segment order (foldBlock, the fold the
// schemes apply to processor partials). Members whose subscript streams
// overlap — shared prefixes, nested windows, staircases — pay for the
// shared segments once; with a SegCache attached, segments whose content
// survived from an earlier batch are not recomputed at all (incremental
// re-reduction).
//
// The answer is the schemes' association with the iterations cut into
// segments instead of processor blocks: each piece accumulated from the
// neutral element in iteration order, the pieces folded in order. Where
// the two cuts coincide the bits do too. The fast OpAdd kernels and the
// scalar naive path agree bit for bit (accumFlatAdd vs naiveAccumFlat,
// mergeOrderedAdd vs naiveMergeOrdered), so Exec.naive swaps every kernel
// while holding the arithmetic shape constant — the property plan_test.go
// checks across overlap shapes.
type SegPlan struct {
	// Analysis is the segment decomposition the plan executes.
	Analysis *pattern.SegmentAnalysis

	members  []*trace.Loop
	numElems int
	op       trace.Op
	tasks    []planTask
	// taskOf[m][s] is the index in tasks of the partial sum member m
	// combines for segment s.
	taskOf [][]int
}

// planTask is one distinct partial sum the plan computes (or reuses).
type planTask struct {
	seg, owner     int
	hash           uint64
	refLo, refHi   int
	iterLo, iterHi int

	buf      []float64
	cached   bool // buf is a verified cache slot; skip accumulation
	intoSlot bool // buf is a cache slot this run refreshes
	pooled   bool // buf came from the pool; release after combining
}

// SegRunStats reports what one simplified execution did: Computed
// partial sums were accumulated from the reference stream, Reused were
// served verified from the attached SegCache.
type SegRunStats struct {
	Computed int
	Reused   int
}

// maxSegments bounds how many segments a plan may cut the iteration
// space into. The fold has no width limit of its own; 64 stays because
// it fixes the cuts DefaultSegIters has always made (and with them every
// bit a resident pattern has returned), and because it sizes Run's
// per-segment served flags on the stack.
const maxSegments = 64

// DefaultSegIters picks the segment width for a loop of numIters
// iterations executed with procs processors: enough segments to expose
// sharing and to give every processor pieces to accumulate (at least 8,
// at least the processor count rounded up to a power of two) but never
// more than maxSegments, and never segments shorter than 32 iterations —
// a segment must amortize its buffer fill and its share of the fold. The
// rule is kept as it was because it fixes the cut, and the cut fixes the
// answer; whether the cut should depend on procs at all is ROADMAP item
// 4(a)'s call.
func DefaultSegIters(numIters, procs int) int {
	target := 8
	p := 1
	for p < procs {
		p <<= 1
	}
	if p > target {
		target = p
	}
	if target > maxSegments {
		target = maxSegments
	}
	segIters := (numIters + target - 1) / target
	if segIters < 32 {
		segIters = 32
	}
	return segIters
}

// BuildSegPlan analyzes the members (pattern.AnalyzeSegments) and builds
// the task list of distinct partial sums. members must be non-empty,
// share iteration geometry, and decompose into at most maxSegments
// segments; segIters <= 0 picks DefaultSegIters for one processor.
func BuildSegPlan(members []*trace.Loop, segIters int) (*SegPlan, error) {
	return BuildSegPlanProcs(members, segIters, 1)
}

// BuildSegPlanProcs is BuildSegPlan with the analysis sweep spread over
// up to procs goroutines — the form the engine uses, so the inspection
// pass scales with the processors the execution will use anyway.
func BuildSegPlanProcs(members []*trace.Loop, segIters, procs int) (*SegPlan, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("reduction: BuildSegPlan needs at least one member")
	}
	leader := members[0]
	if segIters <= 0 {
		segIters = DefaultSegIters(leader.NumIters(), 1)
	}
	a, err := pattern.AnalyzeSegmentsProcs(members, segIters, procs)
	if err != nil {
		return nil, err
	}
	if a.Segments > maxSegments {
		return nil, fmt.Errorf("reduction: %d segments exceed the limit %d", a.Segments, maxSegments)
	}
	p := &SegPlan{
		Analysis: a,
		members:  members,
		numElems: leader.NumElems,
		op:       leader.Op,
		taskOf:   make([][]int, a.Members),
	}
	offs, _ := leader.Flat()
	iters := leader.NumIters()
	// One task per (owner == member) cell, indexed for every member that
	// combines it.
	taskIdx := make(map[[2]int]int, a.Unique)
	for m := range members {
		p.taskOf[m] = make([]int, a.Segments)
		for s := 0; s < a.Segments; s++ {
			owner := a.OwnerOf[m][s]
			key := [2]int{owner, s}
			ti, ok := taskIdx[key]
			if !ok {
				iterLo := s * segIters
				iterHi := iterLo + segIters
				if iterHi > iters {
					iterHi = iters
				}
				p.tasks = append(p.tasks, planTask{
					seg:    s,
					owner:  owner,
					hash:   a.Hashes[owner][s],
					refLo:  int(offs[iterLo]),
					refHi:  int(offs[iterHi]),
					iterLo: iterLo,
					iterHi: iterHi,
				})
				ti = len(p.tasks) - 1
				taskIdx[key] = ti
			}
			p.taskOf[m][s] = ti
		}
	}
	return p, nil
}

// Members returns how many distinct loops the plan covers.
func (p *SegPlan) Members() int { return len(p.members) }

// CachedTasks reports how many of the plan's distinct partial sums the
// cache could serve, by hash probe alone — the optimistic reuse estimate
// the decision boundary weighs before committing to a simplified run.
// Run still verifies slot content against the submitted subscripts
// before trusting it.
func (p *SegPlan) CachedTasks(cache *SegCache) int {
	if cache == nil || !cache.Matches(p.members[0], p.Analysis.SegIters) {
		return 0
	}
	n := 0
	for ti := range p.tasks {
		t := &p.tasks[ti]
		slot := &cache.slots[t.seg]
		if slot.valid && slot.hash == t.hash {
			n++
		}
	}
	return n
}

// SegCache holds one pattern's cached segment partial sums between
// batches, keyed by segment position and verified by content before
// reuse. The engine hangs one off its decision-cache entry; the
// recalibration generation bump invalidates it wholesale (the entry's
// scheme decision changed, so the workload did too). Buffers are owned
// by the cache and never returned to a BufferPool: a pooled buffer
// could be recycled into another worker's scratch while a later batch
// still reads the cached sums.
//
// The cache also keeps the fold of its slots resident: total is every
// slot's buffer folded in segment order, valid (totalOK) exactly while
// no slot has been refreshed since it was folded. A loop whose every
// segment verifies against its slot is then answered with one copy
// instead of a Segments-way fold per element — the same bits, because
// total was written by the same fold over the same buffers and the
// per-element fold does not depend on block bounds.
type SegCache struct {
	numIters, numElems, segIters int
	op                           trace.Op
	slots                        []segSlot
	total                        []float64
	totalOK                      bool
}

// segSlot is one cached segment sum plus the subscript content it was
// computed from. refs aliases the owning loop's storage (loops are
// immutable once submitted); holding it keeps that trace alive, which
// SegCacheBytes accounts for when the engine caps cache size.
type segSlot struct {
	valid bool
	hash  uint64
	refs  []int32
	buf   []float64
}

// NewSegCache builds an empty cache for the loop's geometry under the
// given segment width.
func NewSegCache(l *trace.Loop, segIters int) *SegCache {
	segs := (l.NumIters() + segIters - 1) / segIters
	return &SegCache{
		numIters: l.NumIters(),
		numElems: l.NumElems,
		segIters: segIters,
		op:       l.Op,
		slots:    make([]segSlot, segs),
	}
}

// Matches reports whether the cache's geometry fits the loop under the
// given segment width — the precondition for attaching it to a Run.
func (c *SegCache) Matches(l *trace.Loop, segIters int) bool {
	return c != nil && c.numIters == l.NumIters() && c.numElems == l.NumElems &&
		c.segIters == segIters && c.op == l.Op
}

// SegCacheBytes estimates the resident footprint of a segment cache for
// a loop under the given width: the sum buffers, the resident total and
// the retained subscript content. The engine refuses to attach caches
// beyond its budget.
func SegCacheBytes(l *trace.Loop, segIters int) int {
	segs := (l.NumIters() + segIters - 1) / segIters
	return (segs+1)*l.NumElems*8 + l.TotalRefs()*4
}

// Serve answers l from the resident total with one copy into dst
// (NumElems elements) when Resident verifies it; false means nothing was
// written and the caller plans the loop as usual.
func (c *SegCache) Serve(l *trace.Loop, dst []float64) bool {
	total, ok := c.Resident(l)
	if ok {
		copy(dst, total)
	}
	return ok
}

// Resident returns the resident total when it answers l: the total is
// valid and every slot passes the two checks Run's probe applies — the
// sampled segment hash, then pattern.SameRefs against the retained
// content. The slice is the cache's own and is valid only while the
// caller's claim on the cache holds. Resident and Serve only read the
// cache, so any number of callers may run them together; Run needs an
// exclusive claim.
func (c *SegCache) Resident(l *trace.Loop) ([]float64, bool) {
	if !c.totalOK || !c.Matches(l, c.segIters) {
		return nil, false
	}
	offs, refs := l.Flat()
	for s := range c.slots {
		slot := &c.slots[s]
		seg := refs[offs[s*c.segIters]:offs[min((s+1)*c.segIters, c.numIters)]]
		if !slot.valid || slot.hash != pattern.HashRefs(seg) || !pattern.SameRefs(slot.refs, seg) {
			return nil, false
		}
	}
	return c.total, true
}

// Run executes the plan on procs goroutines: distinct partial sums are
// accumulated in parallel (skipping any verified in cache), then every
// member's destination is combined from its parts in element blocks.
// dsts must hold one destination of numElems elements per member. cache
// may be nil; a cache whose geometry does not match is ignored. Run is
// not concurrency-safe with respect to the cache: the caller serializes
// cache-attached runs (the engine's per-entry claim does this).
func (p *SegPlan) Run(procs int, ex *Exec, cache *SegCache, dsts [][]float64) SegRunStats {
	checkProcs(procs)
	if len(dsts) != len(p.members) {
		panic(fmt.Sprintf("reduction: SegPlan.Run got %d destinations for %d members", len(dsts), len(p.members)))
	}
	leader := p.members[0]
	if cache != nil && !cache.Matches(leader, p.Analysis.SegIters) {
		cache = nil
	}
	fast := ex.fastAdd(leader)
	neutral := p.op.Neutral()
	var st SegRunStats

	// Probe: serve tasks whose cached content verifies, then pick the
	// member-0 task of every unserved segment to refresh its slot — which
	// ends the resident total's validity. Tasks of one segment differ in
	// content, so at most one of them matches the slot.
	if cache != nil {
		var served [maxSegments]bool
		for ti := range p.tasks {
			t := &p.tasks[ti]
			slot := &cache.slots[t.seg]
			if !slot.valid || slot.hash != t.hash {
				continue
			}
			_, refs := p.members[t.owner].Flat()
			if pattern.SameRefs(slot.refs, refs[t.refLo:t.refHi]) {
				t.buf = slot.buf
				t.cached = true
				served[t.seg] = true
				st.Reused++
			}
		}
		for ti := range p.tasks {
			t := &p.tasks[ti]
			if t.owner != 0 || served[t.seg] {
				continue
			}
			slot := &cache.slots[t.seg]
			if cap(slot.buf) < p.numElems {
				slot.buf = make([]float64, p.numElems)
			}
			t.buf = slot.buf[:p.numElems]
			t.intoSlot = true
			cache.totalOK = false
		}
	}

	pool := ex.pool()
	for ti := range p.tasks {
		t := &p.tasks[ti]
		if t.buf == nil {
			t.buf = pool.Float64(p.numElems)
			t.pooled = true
		}
	}

	// Accumulation: every uncached task folds its segment's iteration
	// range in iteration order, exactly as the naive reference does.
	if st.Reused < len(p.tasks) {
		parallelFor(procs, func(pr int) {
			for ti := pr; ti < len(p.tasks); ti += procs {
				t := &p.tasks[ti]
				if t.cached {
					continue
				}
				fill(t.buf, neutral)
				owner := p.members[t.owner]
				if fast {
					offs, refs := owner.Flat()
					accumFlatAdd(t.buf, offs, refs, t.iterLo, t.iterHi)
				} else {
					naiveAccumFlat(t.buf, owner, t.iterLo, t.iterHi)
				}
			}
		})
	}
	for ti := range p.tasks {
		t := &p.tasks[ti]
		if t.cached {
			continue
		}
		st.Computed++
		if t.intoSlot {
			slot := &cache.slots[t.seg]
			_, refs := p.members[t.owner].Flat()
			slot.hash = t.hash
			slot.refs = refs[t.refLo:t.refHi]
			slot.valid = true
		}
	}

	// Combine: per member, fold the segment parts in segment order
	// (foldBlock). Each processor owns an element range and walks it in
	// merge blocks, as replicate does, so members share the parts while
	// writing disjoint destinations. A member whose every part was served
	// from the cache is the cache's own content: while the resident total
	// is valid it gets a copy of it (parts[m] stays nil); otherwise its
	// fold re-arms the total. Arming only on a fully served member means a
	// stream that refreshes a slot every batch never pays the extra write.
	parts := make([][][]float64, len(p.members))
	arm, folds := -1, 0
	for m := range p.members {
		if cache != nil && p.allCached(m) {
			if cache.totalOK {
				continue
			}
			if arm < 0 {
				arm = m
			}
		}
		parts[m] = make([][]float64, p.Analysis.Segments)
		for s := 0; s < p.Analysis.Segments; s++ {
			parts[m][s] = p.tasks[p.taskOf[m][s]].buf
		}
		folds++
	}
	if arm >= 0 && cache.total == nil {
		cache.total = make([]float64, p.numElems)
	}
	block := ex.mergeBlock(procs)
	combine := func(lo, hi int) {
		for blo := lo; blo < hi; blo += block {
			bhi := min(blo+block, hi)
			for m := range parts {
				dst := dsts[m][blo:bhi]
				if parts[m] == nil {
					copy(dst, cache.total[blo:bhi])
				} else {
					foldBlock(dst, parts[m], blo, p.op, fast)
				}
				if m == arm {
					copy(cache.total[blo:bhi], dst)
				}
			}
		}
	}
	if folds == 0 {
		// Nothing but copies: not worth a goroutine fan-out.
		combine(0, p.numElems)
	} else {
		parallelFor(procs, func(pr int) {
			lo, hi := blockBounds(p.numElems, procs, pr)
			combine(lo, hi)
		})
	}
	if arm >= 0 {
		cache.totalOK = true
	}

	for ti := range p.tasks {
		t := &p.tasks[ti]
		if t.pooled {
			pool.PutFloat64(t.buf)
		}
		t.buf = nil
		t.cached, t.intoSlot, t.pooled = false, false, false
	}
	return st
}

// allCached reports whether every part member m combines was served
// from the cache this run.
func (p *SegPlan) allCached(m int) bool {
	for _, ti := range p.taskOf[m] {
		if !p.tasks[ti].cached {
			return false
		}
	}
	return true
}
