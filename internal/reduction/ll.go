package reduction

import "repro/internal/trace"

// LinkedList is the paper's "replicated buffer with links" (ll) scheme:
// every processor owns a full-size private buffer, and ll's promise is
// that Init disappears and Merge is proportional to the elements each
// processor actually touched instead of the array size. One predicate,
// the loop's references per processor against an eighth of the array
// (len(refs)/procs >= NumElems/8), picks how that promise is kept, for
// every operator:
//
//   - Sparse: the buffer is initialized lazily. The first time a
//     processor touches an element it initializes that one entry and
//     threads it onto a private list of touched elements; the merge walks
//     only the lists. Each processor still marks its link array untouched
//     (-2) up front, one streaming int32 sweep.
//   - Dense: with an eighth or more of the array touched per processor,
//     lazy initialization costs a flag check per reference and the list
//     walk a random miss per element, against one streaming sweep of a
//     copy that would be touched nearly everywhere anyway. The loop runs
//     as rep does (replicate).
//
// Both regimes give the same bits. Per element, both fold the touching
// processors' partials into the neutral element in processor order; the
// eager merge also folds the untouched processors' neutral entries, which
// is exact (foldBlock).
type LinkedList struct{}

// Name returns "ll".
func (LinkedList) Name() string { return "ll" }

// Run executes the loop with replicated buffers on procs goroutines.
func (s LinkedList) Run(l *trace.Loop, procs int) []float64 {
	return s.RunInto(l, procs, nil, nil)
}

// RunInto executes the loop with replicated buffers whose value and link
// arrays come from the context's pool. OpAdd loops run the unrolled
// kernels; other operators take the retained scalar references
// (naive.go).
func (LinkedList) RunInto(l *trace.Loop, procs int, ex *Exec, out []float64) []float64 {
	checkProcs(procs)
	pool := ex.pool()
	fast := ex.fastAdd(l)
	offsets, refs := l.Flat()

	if len(refs)/procs >= l.NumElems/8 {
		return replicate(l, procs, ex, out)
	}

	vals := ex.float64Slots(procs)
	nexts := ex.int32Slots(procs)
	heads := pool.Int32(procs)
	defer pool.PutInt32(heads)
	parallelFor(procs, func(p int) {
		v := pool.Float64(l.NumElems)
		next := pool.Int32(l.NumElems)
		fillInt32(next, -2) // -2 = untouched
		head := int32(-1)
		lo, hi := blockBounds(l.NumIters(), procs, p)
		if fast {
			head = accumLazyAdd(v, next, head, offsets, refs, lo, hi)
		} else {
			head = naiveAccumLazy(v, next, head, l, lo, hi)
		}
		vals[p], nexts[p], heads[p] = v, next, head
	})

	// Merge: fold each processor's list into out in processor order; the
	// lists are short, since the loop is sparse.
	out, fresh := ensureOut(out, l.NumElems)
	initNeutral(out, l.Op.Neutral(), fresh)
	for p := 0; p < procs; p++ {
		if fast {
			mergeListAdd(out, vals[p], nexts[p], heads[p])
		} else {
			naiveMergeList(out, vals[p], nexts[p], heads[p], l.Op)
		}
		pool.PutFloat64(vals[p])
		pool.PutInt32(nexts[p])
	}
	return out
}
