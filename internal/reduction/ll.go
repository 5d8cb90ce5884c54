package reduction

import "repro/internal/trace"

// LinkedList is the paper's "replicated buffer with links" (ll) scheme.
// Like rep, every processor owns a full-size private buffer, but the
// buffer is initialized lazily: the first time a processor touches an
// element it initializes that single entry and threads it onto a private
// linked list of touched elements. The merge phase then walks only the
// lists, so Init disappears and Merge is proportional to the number of
// elements each processor actually touched instead of the array size.
//
// ll wins over rep when the reference pattern is sparse enough that most
// of rep's Init/Merge sweeps are wasted, but each access pays a flag check
// and the merge pays pointer-chasing locality.
type LinkedList struct{}

// Name returns "ll".
func (LinkedList) Name() string { return "ll" }

// Run executes the loop with lazily-initialized replicated buffers.
func (s LinkedList) Run(l *trace.Loop, procs int) []float64 {
	return s.RunInto(l, procs, nil, nil)
}

// RunInto executes the loop with lazily-initialized replicated buffers
// whose value and link arrays come from the context's pool. OpAdd loops
// run the unrolled lazy-accumulation kernel; other operators take the
// retained scalar reference (naive.go).
func (LinkedList) RunInto(l *trace.Loop, procs int, ex *Exec, out []float64) []float64 {
	checkProcs(procs)
	neutral := l.Op.Neutral()
	pool := ex.pool()
	fast := ex.fastAdd(l)
	offsets, refs := l.Flat()

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

	// Merge: walk each processor's touched list. Serialized per processor
	// list but applied concurrently over disjoint output partitions would
	// require per-element locks; instead processors merge their own lists
	// into the shared array one list at a time (lists are short when the
	// pattern is sparse — that is ll's use case). To stay deterministic
	// and race-free we merge sequentially here; the lab's simulator
	// charges the parallel cost model described in the paper.
	out, fresh := ensureOut(out, l.NumElems)
	initNeutral(out, neutral, fresh)
	// Dense references defeat the list walk's premise: with an eighth or
	// more of the array touched per processor, chasing the first-touch
	// list costs one random miss per element, while a sequential sweep of
	// the link array streams at cache-line speed. The sweep applies the
	// same one-add-per-touched-element in the same processor order, so
	// the result is bit-identical either way.
	denseMerge := fast && len(refs)/procs >= l.NumElems/8
	for p := 0; p < procs; p++ {
		v, next := vals[p], nexts[p]
		switch {
		case denseMerge:
			mergeDenseAdd(out, v, next)
		case fast:
			mergeListAdd(out, v, next, heads[p])
		default:
			naiveMergeList(out, v, next, heads[p], l.Op)
		}
	}
	for p := 0; p < procs; p++ {
		pool.PutFloat64(vals[p])
		pool.PutInt32(nexts[p])
	}
	ex.fanOut(out)
	return out
}
