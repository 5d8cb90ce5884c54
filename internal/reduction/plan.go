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
// survived from an earlier run are not recomputed at all (incremental
// re-reduction).
//
// No serving path runs a SegPlan: the engine answers a hot loop from
// one resident result armed by its own direct execution. SegPlan stays
// for the claims benchmark's segplan probes and leaves with the next
// change to that benchmark.
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
// it fixes the cuts DefaultSegIters has always made and sizes Run's
// per-segment served flags on the stack.
const maxSegments = 64

// DefaultSegIters picks the segment width for a loop of numIters
// iterations executed with procs processors: enough segments to expose
// sharing and to give every processor pieces to accumulate (at least 8,
// at least the processor count rounded up to a power of two) but never
// more than maxSegments, and never segments shorter than 32 iterations —
// a segment must amortize its buffer fill and its share of the fold. The
// cut fixes a SegPlan's mul bits and the segments the engine's resident
// check hashes; no served answer depends on it. It leaves with SegPlan
// at the next change to the claims benchmark.
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
// up to procs goroutines, so the inspection pass scales with the
// processors the execution will use anyway. It leaves with SegPlan at
// the next change to the claims benchmark.
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

// SegCache holds one pattern's cached segment partial sums between
// runs, keyed by segment position and verified by content before reuse.
// Buffers are owned by the cache and never returned to a BufferPool: a
// pooled buffer could be recycled into another run's scratch while a
// later run still reads the cached sums.
type SegCache struct {
	numIters, numElems, segIters int
	op                           trace.Op
	slots                        []segSlot
}

// segSlot is one cached segment sum plus the subscript content it was
// computed from. refs aliases the owning loop's storage (loops are
// immutable once submitted), which keeps that trace alive.
type segSlot struct {
	valid bool
	hash  uint64
	refs  []int32
	buf   []float64
}

// NewSegCache builds an empty cache for the loop's geometry under the
// given segment width. It leaves with SegPlan at the next change to the
// claims benchmark.
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

// Run executes the plan on procs goroutines: distinct partial sums are
// accumulated in parallel (skipping any verified in cache), then every
// member's destination is combined from its parts in element blocks.
// dsts must hold one destination of numElems elements per member. cache
// may be nil; a cache whose geometry does not match is ignored. Run is
// not concurrency-safe with respect to the cache: the caller serializes
// cache-attached runs.
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
	// member-0 task of every unserved segment to refresh its slot. Tasks
	// of one segment differ in content, so at most one of them matches
	// the slot.
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
	// writing disjoint destinations.
	parts := make([][][]float64, len(p.members))
	for m := range p.members {
		parts[m] = make([][]float64, p.Analysis.Segments)
		for s := 0; s < p.Analysis.Segments; s++ {
			parts[m][s] = p.tasks[p.taskOf[m][s]].buf
		}
	}
	block := ex.mergeBlock(procs)
	parallelFor(procs, func(pr int) {
		lo, hi := blockBounds(p.numElems, procs, pr)
		for blo := lo; blo < hi; blo += block {
			bhi := min(blo+block, hi)
			for m := range parts {
				foldBlock(dsts[m][blo:bhi], parts[m], blo, p.op, fast)
			}
		}
	})

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
