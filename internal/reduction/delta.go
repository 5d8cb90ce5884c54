package reduction

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// This file is the incremental counterpart of the SegPlan/SegCache
// machinery in plan.go: where a SegPlan reuses segment partials between
// runs of one pattern, a DeltaState reuses a whole reduction across time
// for one long-lived loop, updated through the operator's inverse.
//
// Why that is exact: every contribution trace.Value returns is a
// multiple of 2^-27 in (0, 1], and while a loop makes fewer than 2^26
// references every partial sum of an add reduction, in any order, is a
// multiple of 2^-27 below 2^26 — 53 bits, which a double holds exactly.
// A sum then has one value whatever the association, and subtraction
// undoes addition without rounding. So redirecting the reference at
// flat position p (iteration i, slot k) from element a to element b is
// two exact updates,
//
//	result[a] -= Value(i, k, a);  result[b] += Value(i, k, b),
//
// and the rolling result is RunSequential's bits over the mutated loop.
// Mul, max and min have no such inverse (mul's products round; max and
// min forget the contribution a redirect removes), so their sessions
// re-reduce the private loop sequentially on every batch that changes
// it — O(refs), and sent by no served workload — as does an add loop of
// 2^26 references or more, which only an in-process caller can open
// (the wire's frame cap is far below it). delta_test.go holds every path
// to RunSequential with math.Float64bits, and FuzzDeltaState searches
// for counter-examples.

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
// a private mutable copy of the registered loop and its reduction, which
// after every Apply holds RunSequential's bits over the loop as mutated.
//
// The reuse unit is one iteration: Segments is the loop's iteration
// count and an Apply reports the iterations its batch landed in as
// computed, the rest as reused.
//
// A DeltaState is not concurrency-safe; callers serialize Apply (the
// engine's Session mutex does).
type DeltaState struct {
	loop   *trace.Loop
	result []float64
	// exact marks an add loop below exactRefs references: its deltas are
	// applied as two exact updates each, everything else re-reduces.
	exact bool
}

// exactRefs is the reference count from which a sum of contributions
// can leave the 2^-27 grid's exact range; a variable so a test can
// reach the guard without a loop that size.
var exactRefs = 1 << 26

// DeltaStateBytes is the resident footprint of a session over l: the
// private copy of the loop's flat iteration structure (4 bytes a
// reference and an offset) and the resident result (8 bytes an
// element). The server weighs it against its session memory budget
// before admitting an OPEN_SESSION.
func DeltaStateBytes(l *trace.Loop) int {
	return l.TotalRefs()*4 + (l.NumIters()+1)*4 + l.NumElems*8
}

// NewDeltaState is AdoptDeltaState over a deep copy of l, for a caller
// that keeps its loop. segIters and procs are ignored: a session has no
// segment cut, and its one open pass runs on the caller. It waits for
// the next [benchmark] PR: only bench/probes.go still calls it.
func NewDeltaState(l *trace.Loop, segIters, procs int, ex *Exec, dst []float64) (*DeltaState, error) {
	return AdoptDeltaState(l.Clone(), ex, dst)
}

// AdoptDeltaState registers a session over l, which it takes over (the
// session mutates it; the caller must not touch it again), and reduces
// it sequentially into the resident result, which is copied into dst
// when dst is non-nil (dst must hold NumElems elements). ex picks the
// kernel (see Exec) and may be nil.
func AdoptDeltaState(l *trace.Loop, ex *Exec, dst []float64) (*DeltaState, error) {
	if l.NumElems <= 0 {
		return nil, fmt.Errorf("reduction: session loop %q has non-positive NumElems", l.Name)
	}
	s := &DeltaState{
		loop:   l,
		result: make([]float64, l.NumElems),
		exact:  l.Op == trace.OpAdd && l.TotalRefs() < exactRefs,
	}
	s.reduce(ex)
	if dst != nil {
		copy(dst, s.result)
	}
	return s, nil
}

// Loop returns the session's private loop in its current (post-delta)
// state. Callers must not mutate it.
func (s *DeltaState) Loop() *trace.Loop { return s.loop }

// Segments returns the session's reuse units: its loop's iterations.
func (s *DeltaState) Segments() int { return s.loop.NumIters() }

// SegIters returns the width of the reuse unit, one iteration.
func (s *DeltaState) SegIters() int { return 1 }

// Bytes reports the session's resident footprint, the admission-control
// figure DeltaStateBytes predicts.
func (s *DeltaState) Bytes() int { return DeltaStateBytes(s.loop) }

// Apply mutates the session loop with one delta batch, brings the
// resident result up to date and copies it into dst (length NumElems).
// Deltas must be sorted by strictly increasing Pos with every Pos in
// [0, TotalRefs) and every Ref in [0, NumElems); an invalid batch is
// rejected before any mutation, so the state is never half-updated. An
// empty batch re-reads the current result.
//
// procs is ignored (it waits for the next [benchmark] PR, which drops it
// from bench/probes.go's call) and ex picks the kernel of a re-reduction. The
// returned stats count the distinct iterations the batch's deltas land
// in as Computed and every other iteration as Reused.
func (s *DeltaState) Apply(deltas []RefDelta, procs int, ex *Exec, dst []float64) (SegRunStats, error) {
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

	st := SegRunStats{Reused: s.loop.NumIters()}
	it, changed := -1, false
	for _, d := range deltas {
		// Sorted positions: a delta below the next iteration's first
		// reference shares the previous delta's iteration.
		if it < 0 || d.Pos >= offs[it+1] {
			it = iterAt(offs, d.Pos)
			st.Computed++
			st.Reused--
		}
		a := refs[d.Pos]
		if a == d.Ref {
			continue
		}
		if s.exact {
			k := int(d.Pos - offs[it])
			s.result[a] -= trace.Value(it, k, a)
			s.result[d.Ref] += trace.Value(it, k, d.Ref)
		}
		refs[d.Pos] = d.Ref
		changed = true
	}
	if changed && !s.exact {
		s.reduce(ex)
	}
	copy(dst, s.result)
	return st, nil
}

// reduce recomputes the resident result from the loop: every element
// from the operator's neutral value, contributions applied in iteration
// order — RunSequential's chain, which accumFlatAdd also applies for add.
func (s *DeltaState) reduce(ex *Exec) {
	fill(s.result, s.loop.Op.Neutral())
	if ex.fastAdd(s.loop) {
		offs, refs := s.loop.Flat()
		accumFlatAdd(s.result, offs, refs, 0, s.loop.NumIters())
	} else {
		naiveAccumFlat(s.result, s.loop, 0, s.loop.NumIters())
	}
}

// iterAt returns the iteration holding flat position pos of a loop with
// iteration offsets offs (offs[0] = 0 <= pos < offs[last]). A loop whose
// iterations all make the same number of references — an edge's two
// nodes, a cell's four — has its offsets on a line, so interpolating
// lands on the iteration with one probe; any other loop falls back to a
// binary search (empty iterations repeat an offset and are passed over).
func iterAt(offs []int32, pos int32) int {
	n := len(offs) - 1
	g := int(int64(pos) * int64(n) / int64(offs[n]))
	if offs[g] <= pos && pos < offs[g+1] {
		return g
	}
	i, _ := slices.BinarySearch(offs[1:], pos+1)
	return i
}
