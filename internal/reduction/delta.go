package reduction

import (
	"fmt"
	"sort"

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
// slot of the segment's buffer already holds, bit for bit, what a fresh
// accumulation would write there. The delta path therefore resets the
// slots of a and b to the operator's neutral value and replays the
// segment's reference stream applying only the contributions to marked
// elements (accumMaskedAdd / naiveAccumMasked) — the same contributions
// in the same order the full kernels (accumFlatAdd / naiveAccumFlat)
// apply. Across segments the combined result stays resident, and only
// the marked elements are re-folded through the same fixed tree
// association every other path uses (combineTreeAdd / combineTreeOp).
// The rolling result is thus bit-for-bit identical to rebuilding every
// segment from scratch — the property delta_test.go pins with
// math.Float64bits against the naive kernels and FuzzDeltaState searches
// for counter-examples to.

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
// a private mutable copy of the registered loop, one partial-sum buffer
// per iteration segment and the combined result, all valid between
// updates. It is the SegCache idea with the cross-batch verification
// stripped away — the state owns its loop, so slot content can never be
// stale.
//
// A DeltaState is not concurrency-safe; callers serialize Apply (the
// engine's Session mutex does).
type DeltaState struct {
	loop     *trace.Loop
	segIters int
	parts    [][]float64
	// result is the tree combine of parts, kept current by every Apply.
	result []float64
	// mask marks the elements being re-accumulated in the segment under
	// rescan (listed in marked, so un-marking costs O(marked)); stale
	// marks the elements whose result slot a batch must re-fold. Both are
	// all-clear between Apply calls.
	mask   []uint8
	marked []int32
	stale  []bool
}

// sessionSegIters picks a session's segment width from the loop itself.
// A delta rescans the segment it lands in, so narrower segments make
// updates cheaper, while every segment costs one NumElems-wide resident
// buffer: take as many segments as fit in about the private loop copy's
// own footprint, at most maxSegTreeWidth, never narrower than 32
// iterations, and never fewer than DefaultSegIters would cut.
func sessionSegIters(l *trace.Loop, procs int) int {
	// max(.., 1) twice: a loop lighter than one buffer still gets a
	// segment, and an empty array (which NewDeltaState rejects) must not
	// divide by zero in the admission estimate.
	segs := max(min(loopBytes(l)/(max(l.NumElems, 1)*8), maxSegTreeWidth), 1)
	segIters := max((l.NumIters()+segs-1)/segs, 32)
	return min(segIters, DefaultSegIters(l.NumIters(), procs))
}

// loopBytes is the footprint of a loop's flat iteration structure.
func loopBytes(l *trace.Loop) int {
	return l.TotalRefs()*4 + (l.NumIters()+1)*4
}

// DeltaStateBytes estimates the resident footprint of a session over l
// under the given segment width (0 picks the session default for
// procs): the per-segment sum buffers and the resident result (8 bytes
// an element each), the element marks and the mark list (6 bytes an
// element together), and the private copy of the loop's iteration
// structure. The server weighs it against its session memory budget
// before admitting an OPEN_SESSION.
func DeltaStateBytes(l *trace.Loop, segIters, procs int) int {
	if segIters <= 0 {
		segIters = sessionSegIters(l, procs)
	}
	segs := (l.NumIters() + segIters - 1) / segIters
	return (segs+1)*l.NumElems*8 + l.NumElems*6 + loopBytes(l)
}

// NewDeltaState registers a session over l: the loop is deep-copied
// (the session mutates it), every segment's partial sum is computed and
// combined into the resident result, and, when dst is non-nil, that
// result is copied into it (dst must hold NumElems elements).
// segIters <= 0 picks the session default for procs (as many segments
// as fit the loop's own footprint, see DeltaStateBytes). The segment
// count must fit the combine tree (maxSegTreeWidth).
func NewDeltaState(l *trace.Loop, segIters, procs int, ex *Exec, dst []float64) (*DeltaState, error) {
	checkProcs(procs)
	if l.NumElems <= 0 {
		return nil, fmt.Errorf("reduction: session loop %q has non-positive NumElems", l.Name)
	}
	if segIters <= 0 {
		segIters = sessionSegIters(l, procs)
	}
	segs := (l.NumIters() + segIters - 1) / segIters
	if segs > maxSegTreeWidth {
		return nil, fmt.Errorf("reduction: %d session segments exceed the combine width %d", segs, maxSegTreeWidth)
	}
	// Long-lived buffers: never pooled, so no later worker scratch can
	// alias a buffer a future read still combines from.
	s := &DeltaState{
		loop:     l.Clone(),
		segIters: segIters,
		parts:    make([][]float64, segs),
		result:   make([]float64, l.NumElems),
		mask:     make([]uint8, l.NumElems),
		marked:   make([]int32, 0, l.NumElems),
		stale:    make([]bool, l.NumElems),
	}
	for i := range s.parts {
		s.parts[i] = make([]float64, l.NumElems)
	}
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
func (s *DeltaState) Segments() int { return len(s.parts) }

// SegIters returns the session's segment width in iterations.
func (s *DeltaState) SegIters() int { return s.segIters }

// Bytes reports the session's resident footprint (the admission-control
// accounting figure DeltaStateBytes predicts).
func (s *DeltaState) Bytes() int {
	return DeltaStateBytes(s.loop, s.segIters, 1)
}

// Apply mutates the session loop with one delta batch, re-accumulates
// the elements the batch touched in the segments it landed in, re-folds
// those elements of the resident result, and copies the rolling
// reduction into dst (length NumElems). Deltas must be sorted by
// strictly increasing Pos with every Pos in [0, TotalRefs) and every Ref
// in [0, NumElems); an invalid batch is rejected before any mutation, so
// the state is never half-updated. An empty batch recomputes nothing and
// re-reads the current state.
//
// The work is tens of microseconds for a typical batch, less than
// fanning it out would cost, so Apply runs on the calling goroutine;
// procs is only validated. The returned stats count the segments a delta
// landed in (Computed: their reference streams were rescanned) against
// the segments left intact (Reused) — the per-update incremental win the
// session counters surface.
func (s *DeltaState) Apply(deltas []RefDelta, procs int, ex *Exec, dst []float64) (SegRunStats, error) {
	checkProcs(procs)
	offs, refs := s.loop.Flat()
	prev := int32(-1)
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
	}
	if len(dst) != s.loop.NumElems {
		return SegRunStats{}, fmt.Errorf("reduction: session destination holds %d elements, want %d", len(dst), s.loop.NumElems)
	}

	fast := ex.fastAdd(s.loop)
	neutral := s.loop.Op.Neutral()
	iters := s.loop.NumIters()
	st := SegRunStats{Reused: len(s.parts)}
	for len(deltas) > 0 {
		// The batch is sorted by position, so the deltas of one segment
		// are a contiguous run: locate the first one's iteration by
		// binary search, take everything below the segment's last
		// reference with it.
		pos := deltas[0].Pos
		iter := sort.Search(iters, func(i int) bool { return offs[i+1] > pos })
		seg := iter / s.segIters
		lo := seg * s.segIters
		hi := min(lo+s.segIters, iters)
		part := s.parts[seg]
		n := 0
		for ; n < len(deltas) && deltas[n].Pos < offs[hi]; n++ {
			d := deltas[n]
			s.mark(part, refs[d.Pos], neutral)
			s.mark(part, d.Ref, neutral)
			refs[d.Pos] = d.Ref
		}
		deltas = deltas[n:]

		if fast {
			accumMaskedAdd(part, s.mask, offs, refs, lo, hi)
		} else {
			naiveAccumMasked(part, s.mask, s.loop, lo, hi)
		}
		for _, e := range s.marked {
			s.mask[e] = 0
		}
		s.marked = s.marked[:0]
		st.Computed++
		st.Reused--
	}

	// Re-fold the touched elements, one call per run of neighbours. The
	// walk is linear in NumElems, like the copy that follows it.
	for e := 0; e < len(s.stale); e++ {
		if !s.stale[e] {
			continue
		}
		lo := e
		for ; e < len(s.stale) && s.stale[e]; e++ {
			s.stale[e] = false
		}
		s.fold(fast, lo, e)
	}
	copy(dst, s.result)
	return st, nil
}

// mark schedules element e of the segment buffer part for
// re-accumulation: its slot restarts from neutral, and its result slot
// is re-folded at the end of the batch.
func (s *DeltaState) mark(part []float64, e int32, neutral float64) {
	if s.mask[e] != 0 {
		return
	}
	s.mask[e] = 1
	s.marked = append(s.marked, e)
	s.stale[e] = true
	part[e] = neutral
}

// fold combines elements [lo, hi) of every segment's partial sum into
// the resident result through the pairwise tree.
func (s *DeltaState) fold(fast bool, lo, hi int) {
	if fast {
		combineTreeAdd(s.result, s.parts, lo, hi)
	} else {
		combineTreeOp(s.result, s.parts, lo, hi, s.loop.Op)
	}
}

// build is the open path: it accumulates every segment in iteration
// order, segments dealt across procs goroutines, then folds them into
// the resident result in element blocks. A loop with no iterations has
// no segments and reduces to the neutral array.
func (s *DeltaState) build(procs int, ex *Exec) {
	neutral := s.loop.Op.Neutral()
	if len(s.parts) == 0 {
		fill(s.result, neutral)
		return
	}
	fast := ex.fastAdd(s.loop)
	offs, refs := s.loop.Flat()
	iters := s.loop.NumIters()
	parallelFor(procs, func(pr int) {
		for seg := pr; seg < len(s.parts); seg += procs {
			buf := s.parts[seg]
			lo := seg * s.segIters
			hi := min(lo+s.segIters, iters)
			fill(buf, neutral)
			if fast {
				accumFlatAdd(buf, offs, refs, lo, hi)
			} else {
				naiveAccumFlat(buf, s.loop, lo, hi)
			}
		}
	})
	parallelFor(procs, func(pr int) {
		lo, hi := blockBounds(s.loop.NumElems, procs, pr)
		s.fold(fast, lo, hi)
	})
}
