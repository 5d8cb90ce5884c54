package reduction

import "repro/internal/trace"

// Rep is the classic replicated-array reduction ("private accumulation and
// global update in replicated private arrays" in the paper). Every
// processor allocates a full private copy of the reduction array,
// initializes it to the neutral element, accumulates its block of
// iterations privately, and finally all processors cooperatively merge the
// P private copies into the shared array.
//
// Rep wins when the array is small relative to the cache and the
// contention ratio CHR is high (lots of references amortizing the
// initialization and merge sweeps); it loses badly when the array is large
// and sparsely referenced, because Init and Merge sweep P full copies
// regardless of how few elements were touched.
type Rep struct{}

// Name returns "rep".
func (Rep) Name() string { return "rep" }

// Run executes the loop with replicated private arrays on procs goroutines.
func (r Rep) Run(l *trace.Loop, procs int) []float64 {
	return r.RunInto(l, procs, nil, nil)
}

// RunInto executes the loop with replicated private arrays drawn from the
// context's buffer pool; steady-state repeated executions allocate nothing.
func (Rep) RunInto(l *trace.Loop, procs int, ex *Exec, out []float64) []float64 {
	checkProcs(procs)
	return replicate(l, procs, ex, out)
}

// replicate is the replicated-buffer execution shared by rep and by ll on
// dense loops: privatize, then merge. The merge runs on procs goroutines
// over disjoint element ranges; each folds its range block by block in
// processor order (foldBlock). Every element is written, so out needs no
// initialization.
func replicate(l *trace.Loop, procs int, ex *Exec, out []float64) []float64 {
	priv := privatize(l, procs, ex)
	res, _ := ensureOut(out, l.NumElems) // a new name: a captured out would escape
	block := ex.mergeBlock(procs)
	fast := ex.fastAdd(l)
	parallelFor(procs, func(p int) {
		lo, hi := blockBounds(l.NumElems, procs, p)
		for blo := lo; blo < hi; blo += block {
			foldBlock(res[blo:min(blo+block, hi)], priv, blo, l.Op, fast)
		}
	})
	for _, w := range priv {
		ex.pool().PutFloat64(w)
	}
	return res
}

// foldBlock sets dst to the partials' elements [off, off+len(dst)) folded
// in order — the one way partials are combined: processor copies in
// every privatizing scheme, segment parts in SegPlan. The neutral
// element is exact
// under every operator (0+x, 1*x, max(-Inf,x), min(+Inf,x) all return x,
// given partials that are never -0 or NaN — every contribution is a
// trace.Value in (0, 1]), so the fold equals the one the lazy list and
// the hash tables apply to the touching processors alone. dst may alias
// priv[0][off:].
func foldBlock(dst []float64, priv [][]float64, off int, op trace.Op, fast bool) {
	if fast {
		mergeOrderedAdd(dst, priv, off)
	} else {
		naiveMergeOrdered(dst, priv, off, op)
	}
}

// privatize is the Init + Loop phase of the replicated-buffer schemes
// (rep, and ll on dense loops): each processor fills a pooled private
// copy with the neutral element and folds its block of iterations into
// it. OpAdd loops run the unrolled flat-accumulation kernel; other
// operators take the retained scalar reference (naive.go).
func privatize(l *trace.Loop, procs int, ex *Exec) [][]float64 {
	neutral := l.Op.Neutral()
	pool := ex.pool()
	priv := ex.float64Slots(procs)
	fast := ex.fastAdd(l)
	offsets, refs := l.Flat()
	parallelFor(procs, func(p int) {
		w := pool.Float64(l.NumElems)
		initNeutral(w, neutral, pool == nil)
		lo, hi := blockBounds(l.NumIters(), procs, p)
		if fast {
			accumFlatAdd(w, offsets, refs, lo, hi)
		} else {
			naiveAccumFlat(w, l, lo, hi)
		}
		priv[p] = w
	})
	return priv
}
