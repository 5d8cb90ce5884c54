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
// OpAdd loops run the unrolled flat-accumulation kernel; other operators
// take the retained scalar reference (naive.go).
func (Rep) RunInto(l *trace.Loop, procs int, ex *Exec, out []float64) []float64 {
	checkProcs(procs)
	priv := privatize(l, procs, ex)

	// Merge: processors cooperatively tree-combine their element ranges
	// across the P copies in L2-sized blocks (writing every element, so
	// out needs no initialization), then copy the combined block to the
	// primary and fused batch destinations while it is still cache-hot.
	// The neutral element is exact under every operator (0+x, 1*x,
	// max(-Inf,x), min(+Inf,x) all return x bit-for-bit), so the combined
	// copy in priv[0] is the result.
	out, _ = ensureOut(out, l.NumElems)
	targets := ex.batchTargets()
	block := ex.mergeBlock(procs)
	fast := ex.fastAdd(l)
	parallelFor(procs, func(p int) {
		lo, hi := blockBounds(l.NumElems, procs, p)
		treeCombineRange(priv, lo, hi, block, l.Op, fast)
		copy(out[lo:hi], priv[0][lo:hi])
		for _, t := range targets {
			copy(t[lo:hi], priv[0][lo:hi])
		}
	})
	for _, w := range priv {
		ex.pool().PutFloat64(w)
	}
	return out
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
