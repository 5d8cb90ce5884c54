package reduction

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// This file is the incremental counterpart of the SegPlan/SegCache
// machinery in plan.go: where a SegPlan discovers sharing *between*
// members of one batch, a DeltaState exploits sharing *across time* for
// one long-lived loop. A streaming session registers its loop once; each
// update batch then redirects a handful of subscripts and re-reduces by
// re-accumulating only the *elements* those subscripts left or joined,
// inside the segments they fall in.
//
// Why that is exact: a segment's partial sum for element e is the fold,
// in iteration order, of the contributions of the references that name
// e. Redirecting one reference from a to b changes that contribution
// sequence for a and for b and for no other element, so every other
// partial of the segment already holds, bit for bit, what a fresh
// accumulation would write there. The delta path therefore rebuilds the
// partials of a and b from the operator's neutral value — and it finds
// their contributions without reading the segment's reference stream:
// the state keeps, per element, the ascending flat positions that
// reference it (the inspector's per-owner iteration list of the paper's
// LocalWrite, kept per element and kept current), so a rebuild walks the
// element's positions inside the segment's range and applies exactly the
// contributions, in exactly the ascending order, the full kernels
// (accumFlatAdd / naiveAccumFlat) apply to that element. Across segments
// the combined result stays resident, and only the marked elements are
// re-folded, left to right in segment order (foldCol) — per element the
// fold SegPlan applies to segment parts and the schemes to processor
// partials. The rolling result is thus bit-for-bit identical to
// rebuilding every segment from scratch — the property delta_test.go
// pins with math.Float64bits against the naive kernels and
// FuzzDeltaState searches for counter-examples to.

// RefDelta is one subscript update: the reference at flat position Pos
// of the session's loop is redirected to element Ref. A delta batch is
// applied atomically between two reads.
type RefDelta struct {
	// Pos indexes the loop's flattened reference stream, in [0, TotalRefs).
	Pos int32
	// Ref is the new reduction element index, in [0, NumElems).
	Ref int32
}

// DeltaState is one streaming session's server-resident reduction state:
// a private mutable copy of the registered loop, its per-element
// reference index, every (element, segment) partial sum and the combined
// result, all valid between updates. It is the SegCache idea with the
// cross-batch verification stripped away — the state owns its loop, so a
// partial can never be stale — and with the reuse unit narrowed from a
// whole segment to one element of it.
//
// A DeltaState is not concurrency-safe; callers serialize Apply (the
// engine's Session mutex does).
type DeltaState struct {
	loop     *trace.Loop
	segIters int
	segs     int
	// cols holds the partial sums element-major: cols[e*segs+seg] is
	// element e's fold over segment seg, so the segs partials one result
	// slot combines are contiguous.
	cols []float64
	// result is every column folded in segment order, kept current by
	// every Apply.
	result []float64
	// byElem[e] lists, ascending, the flat positions whose reference is
	// e. The lists are carved from one backing array with indexHeadroom
	// spare slots each; one that outgrows its share moves to the heap on
	// its own.
	byElem [][]int32
	// marks[e] carries two flags, both clear between Apply calls: inSeg
	// while e's partial in the segment at hand awaits its rebuild (e is
	// then listed in rebuild), inBatch while e's result slot awaits its
	// re-fold (e is then listed in refold). The lists make un-marking, and
	// so an Apply, cost what the batch touched.
	marks   []uint8
	rebuild []int32
	refold  []int32
}

const (
	inSeg   = 1 << iota // marks flag: listed in rebuild
	inBatch             // marks flag: listed in refold
)

// sessionSegIters picks a session's segment width from the loop itself.
// The width no longer decides how much an update reads — a marked
// element replays its own references, however the iterations are cut —
// only how that work splits: more segments mean shorter replays and a
// longer fold, and on the served stream (64 x 256 iterations) 8 segments
// and 64 measured the same. The rule therefore stays what it was, because
// the cut fixes where the fold's pieces begin and with it the bits a
// session returns. Every segment costs one partial per element: take as
// many segments as fit in about the private loop copy's own footprint,
// at most maxSegments, never narrower than 32 iterations, and never
// fewer than DefaultSegIters would cut.
func sessionSegIters(l *trace.Loop, procs int) int {
	// max(.., 1) twice: a loop lighter than one column still gets a
	// segment, and an empty array (which NewDeltaState rejects) must not
	// divide by zero in the admission estimate.
	segs := max(min(loopBytes(l)/(max(l.NumElems, 1)*8), maxSegments), 1)
	segIters := max((l.NumIters()+segs-1)/segs, 32)
	return min(segIters, DefaultSegIters(l.NumIters(), procs))
}

// loopBytes is the footprint of a loop's flat iteration structure.
func loopBytes(l *trace.Loop) int {
	return l.TotalRefs()*4 + (l.NumIters()+1)*4
}

// indexHeadroom is the spare capacity every element's position list is
// opened with: a quarter of the mean list length plus eight slots. Under
// uniform churn a list's length wanders by a few standard deviations of
// the mean's square root, which this covers for all but a handful of
// elements over a stream that rewrites every reference twice.
func indexHeadroom(l *trace.Loop) int {
	return l.TotalRefs()/(4*max(l.NumElems, 1)) + 8
}

// DeltaStateBytes estimates the resident footprint of a session over l
// under the given segment width (0 picks the session default for
// procs): the element-major partials and the resident result (8 bytes an
// element each), the element marks and the two mark lists (9 bytes an
// element together), the private copy of the loop's iteration structure,
// and the reference index over it — one position per reference plus the
// per-element headroom (4 bytes each) and a 24-byte list header an
// element. The server weighs it against its session memory budget before
// admitting an OPEN_SESSION.
func DeltaStateBytes(l *trace.Loop, segIters, procs int) int {
	if segIters <= 0 {
		segIters = sessionSegIters(l, procs)
	}
	segs := (l.NumIters() + segIters - 1) / segIters
	index := (l.TotalRefs()+l.NumElems*indexHeadroom(l))*4 + l.NumElems*24
	return (segs+1)*l.NumElems*8 + l.NumElems*9 + loopBytes(l) + index
}

// NewDeltaState registers a session over l: the loop is deep-copied
// (the session mutates it) and indexed by element, every segment's
// partial sum is computed and folded in segment order into the resident
// result, and, when dst is non-nil, that result is copied into it (dst
// must hold NumElems elements). segIters <= 0 picks the session default
// for procs (as many segments as fit the loop's own footprint, see
// DeltaStateBytes). The segment count must not exceed maxSegments.
func NewDeltaState(l *trace.Loop, segIters, procs int, ex *Exec, dst []float64) (*DeltaState, error) {
	checkProcs(procs)
	if l.NumElems <= 0 {
		return nil, fmt.Errorf("reduction: session loop %q has non-positive NumElems", l.Name)
	}
	if segIters <= 0 {
		segIters = sessionSegIters(l, procs)
	}
	segs := (l.NumIters() + segIters - 1) / segIters
	if segs > maxSegments {
		return nil, fmt.Errorf("reduction: %d session segments exceed the limit %d", segs, maxSegments)
	}
	// Long-lived buffers: never pooled, so no later worker scratch can
	// alias a partial a future read still combines from.
	s := &DeltaState{
		loop:     l.Clone(),
		segIters: segIters,
		segs:     segs,
		cols:     make([]float64, segs*l.NumElems),
		result:   make([]float64, l.NumElems),
		marks:    make([]uint8, l.NumElems),
		rebuild:  make([]int32, 0, l.NumElems),
		refold:   make([]int32, 0, l.NumElems),
	}
	s.index(ex)
	s.build(procs, ex)
	if dst != nil {
		copy(dst, s.result)
	}
	return s, nil
}

// Loop returns the session's private loop in its current (post-delta)
// state. Callers must not mutate it.
func (s *DeltaState) Loop() *trace.Loop { return s.loop }

// Segments returns the session's segment count.
func (s *DeltaState) Segments() int { return s.segs }

// SegIters returns the session's segment width in iterations.
func (s *DeltaState) SegIters() int { return s.segIters }

// Bytes reports the session's resident footprint (the admission-control
// accounting figure DeltaStateBytes predicts). A position list that has
// outgrown its headroom holds a little more than its share of that.
func (s *DeltaState) Bytes() int {
	return DeltaStateBytes(s.loop, s.segIters, 1)
}

// Apply mutates the session loop with one delta batch, rebuilds the
// partials of the elements the batch touched in the segments it landed
// in, re-folds those elements of the resident result, and copies the
// rolling reduction into dst (length NumElems). Deltas must be sorted by
// strictly increasing Pos with every Pos in [0, TotalRefs) and every Ref
// in [0, NumElems); an invalid batch is rejected before any mutation, so
// the state is never half-updated. An empty batch recomputes nothing and
// re-reads the current state.
//
// The work is microseconds for a typical batch, less than fanning it
// out would cost, so Apply runs on the calling goroutine; procs serves
// only the batch large enough to re-open (reopenAt). The returned stats
// count the segments a delta landed in (Computed: some element's partial
// there was rebuilt) against the segments left intact (Reused) — the
// per-update incremental win the session counters surface.
func (s *DeltaState) Apply(deltas []RefDelta, procs int, ex *Exec, dst []float64) (SegRunStats, error) {
	checkProcs(procs)
	offs, refs := s.loop.Flat()
	prev := int32(-1)
	moves := 0
	for i, d := range deltas {
		if d.Pos <= prev {
			return SegRunStats{}, fmt.Errorf("reduction: delta %d position %d not strictly increasing (prev %d)", i, d.Pos, prev)
		}
		if int(d.Pos) >= len(refs) {
			return SegRunStats{}, fmt.Errorf("reduction: delta %d position %d out of range [0,%d)", i, d.Pos, len(refs))
		}
		if int(d.Ref) < 0 || int(d.Ref) >= s.loop.NumElems {
			return SegRunStats{}, fmt.Errorf("reduction: delta %d ref %d out of range [0,%d)", i, d.Ref, s.loop.NumElems)
		}
		prev = d.Pos
		// A redirect shifts at most the two lists it edits.
		moves += len(s.byElem[refs[d.Pos]]) + len(s.byElem[d.Ref])
	}
	if len(dst) != s.loop.NumElems {
		return SegRunStats{}, fmt.Errorf("reduction: session destination holds %d elements, want %d", len(dst), s.loop.NumElems)
	}
	if moves > reopenAt*len(refs) {
		return s.reopen(deltas, procs, ex, dst), nil
	}

	iters := s.loop.NumIters()
	st := SegRunStats{Reused: s.segs}
	for len(deltas) > 0 {
		// The batch is sorted by position, so the deltas of one segment
		// are a contiguous run: locate the first one's iteration by
		// binary search, take everything below the segment's last
		// reference with it.
		seg := iterAt(offs, deltas[0].Pos) / s.segIters
		lo := seg * s.segIters
		hi := min(lo+s.segIters, iters)
		n := 0
		for ; n < len(deltas) && deltas[n].Pos < offs[hi]; n++ {
			d := deltas[n]
			old := refs[d.Pos]
			s.mark(old)
			s.mark(d.Ref)
			if old != d.Ref {
				s.redirect(d.Pos, old, d.Ref)
				refs[d.Pos] = d.Ref
			}
		}
		deltas = deltas[n:]

		segOffs := offs[lo : hi+1]
		for _, e := range s.rebuild {
			s.cols[int(e)*s.segs+seg] = replayElem(s.byElem[e], segOffs, lo, e, s.loop.Op)
			s.marks[e] &^= inSeg
		}
		s.rebuild = s.rebuild[:0]
		st.Computed++
		st.Reused--
	}

	fast := ex.fastAdd(s.loop)
	for _, e := range s.refold {
		s.result[e] = s.fold(fast, int(e))
		s.marks[e] = 0
	}
	s.refold = s.refold[:0]
	copy(dst, s.result)
	return st, nil
}

// reopenAt bounds what a batch may cost: shifting one index entry is
// some 64 times cheaper than re-accumulating one reference, so a batch
// whose list edits could shift more than 64 entries per reference of the
// loop — thousands of redirects through one list that holds most of the
// stream, nothing a drifting pattern sends — is cheaper served by
// re-opening in place. Without the bound such a batch is quadratic in
// the list's length.
const reopenAt = 64

// reopen is Apply for a batch past reopenAt: it redirects the
// references, then re-indexes and rebuilds every partial the way
// NewDeltaState does — the state a fresh open over the mutated loop
// holds, which is the state tracking the batch would have reached.
func (s *DeltaState) reopen(deltas []RefDelta, procs int, ex *Exec, dst []float64) SegRunStats {
	offs, refs := s.loop.Flat()
	st := SegRunStats{Reused: s.segs}
	last := -1
	for _, d := range deltas {
		refs[d.Pos] = d.Ref
		// Sorted positions visit segments in order: a new one is a change.
		if seg := iterAt(offs, d.Pos) / s.segIters; seg != last {
			last = seg
			st.Computed++
			st.Reused--
		}
	}
	s.index(ex)
	s.build(procs, ex)
	copy(dst, s.result)
	return st
}

// mark schedules element e for a rebuild of its partial in the segment
// at hand and for a re-fold of its result slot at the end of the batch.
func (s *DeltaState) mark(e int32) {
	m := s.marks[e]
	if m&inSeg != 0 {
		return
	}
	s.rebuild = append(s.rebuild, e)
	if m&inBatch == 0 {
		s.refold = append(s.refold, e)
	}
	s.marks[e] = inSeg | inBatch
}

// countLE returns how many entries of the ascending s are <= v. An
// Apply's searches run over data no branch predictor has seen, so the
// probe is written to compile to a flag set and a mask, not a branch.
func countLE(s []int32, v int32) int {
	base, n := 0, len(s)
	for n > 1 {
		half := n / 2
		var le int
		if s[base+half-1] <= v {
			le = 1
		}
		base += half & -le
		n -= half
	}
	if n == 1 && s[base] <= v {
		base++
	}
	return base
}

// redirect moves flat position pos from element a's list to element b's,
// keeping both ascending. A full list grows by reallocating alone.
func (s *DeltaState) redirect(pos, a, b int32) {
	i := countLE(s.byElem[a], pos) - 1
	s.byElem[a] = slices.Delete(s.byElem[a], i, i+1)
	s.byElem[b] = slices.Insert(s.byElem[b], countLE(s.byElem[b], pos), pos)
}

// replayElem rebuilds element e's partial over one segment from the
// operator's neutral value: offs are the segment's iteration offsets
// (iteration iterLo first, one past the last iteration included) and
// list the ascending flat positions that reference e. Walking the
// positions inside [offs[0], offs[last]) applies e's contributions in
// the order accumFlatAdd and naiveAccumFlat reach them, so the partial
// is what a fresh accumulation of the segment leaves in slot e.
func replayElem(list, offs []int32, iterLo int, e int32, op trace.Op) float64 {
	acc := op.Neutral()
	end := offs[len(offs)-1]
	for _, pos := range list[countLE(list, offs[0]-1):] {
		if pos >= end {
			break
		}
		it := iterAt(offs, pos)
		acc = op.Apply(acc, trace.Value(iterLo+it, int(pos-offs[it]), e))
	}
	return acc
}

// iterAt returns the iteration holding flat position pos, counted from
// the first of the ascending iteration offsets offs (one past the last
// iteration included); offs[0] <= pos < offs[last]. A loop whose
// iterations all make the same number of references — an edge's two
// nodes, a cell's four — has its offsets on a line, so interpolating
// lands on the iteration with one probe; any other loop falls back to
// the search (empty iterations repeat an offset and are counted past).
func iterAt(offs []int32, pos int32) int {
	n := len(offs) - 1
	g := int(int64(pos-offs[0]) * int64(n) / int64(offs[n]-offs[0]))
	if offs[g] <= pos && pos < offs[g+1] {
		return g
	}
	return countLE(offs[1:], pos)
}

// fold folds element e's column of partials in segment order.
func (s *DeltaState) fold(fast bool, e int) float64 {
	return foldCol(s.cols[e*s.segs:(e+1)*s.segs], s.loop.Op, fast)
}

// foldCol is foldBlock for one element whose partials are contiguous: it
// returns col folded left to right, col[0] first — the chain of
// operations mergeOrderedAdd (fast, OpAdd) or naiveMergeOrdered applies
// to one element. col must not be empty.
func foldCol(col []float64, op trace.Op, fast bool) float64 {
	acc := col[0]
	if fast {
		for _, v := range col[1:] {
			acc += v
		}
		return acc
	}
	for _, v := range col[1:] {
		acc = op.Apply(acc, v)
	}
	return acc
}

// index builds byElem by one counting sort of the loop's references:
// count, carve every element its share of one backing array (its count
// plus the headroom), then deal the positions out in ascending order.
func (s *DeltaState) index(ex *Exec) {
	_, refs := s.loop.Flat()
	elems := s.loop.NumElems
	room := indexHeadroom(s.loop)
	counts := ex.pool().Int32(elems)
	fillInt32(counts, 0)
	for _, r := range refs {
		counts[r]++
	}
	back := make([]int32, len(refs)+elems*room)
	s.byElem = make([][]int32, elems)
	at := 0
	for e, n := range counts {
		end := at + int(n)
		s.byElem[e] = back[at : end : end+room]
		at = end + room
		counts[e] = 0 // from here on: how much of the list is dealt
	}
	for pos, r := range refs {
		s.byElem[r][counts[r]] = int32(pos)
		counts[r]++
	}
	ex.pool().PutInt32(counts)
}

// build is the open path: it accumulates every segment in iteration
// order into a pooled scratch buffer and writes it out as one column
// entry per element, segments dealt in blocks across procs goroutines
// (neighbouring segments share cache lines of cols), then folds every
// column into the resident result in element blocks. A loop with no
// iterations has no segments and reduces to the neutral array.
func (s *DeltaState) build(procs int, ex *Exec) {
	neutral := s.loop.Op.Neutral()
	if s.segs == 0 {
		fill(s.result, neutral)
		return
	}
	fast := ex.fastAdd(s.loop)
	offs, refs := s.loop.Flat()
	iters := s.loop.NumIters()
	parallelFor(procs, func(pr int) {
		segLo, segHi := blockBounds(s.segs, procs, pr)
		if segLo == segHi {
			return
		}
		buf := ex.pool().Float64(s.loop.NumElems)
		for seg := segLo; seg < segHi; seg++ {
			lo := seg * s.segIters
			hi := min(lo+s.segIters, iters)
			fill(buf, neutral)
			if fast {
				accumFlatAdd(buf, offs, refs, lo, hi)
			} else {
				naiveAccumFlat(buf, s.loop, lo, hi)
			}
			for e, v := range buf {
				s.cols[e*s.segs+seg] = v
			}
		}
		ex.pool().PutFloat64(buf)
	})
	parallelFor(procs, func(pr int) {
		lo, hi := blockBounds(s.loop.NumElems, procs, pr)
		for e := lo; e < hi; e++ {
			s.result[e] = s.fold(fast, e)
		}
	})
}
