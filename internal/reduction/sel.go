package reduction

import "repro/internal/trace"

// Selective implements the paper's selective privatization (sel) scheme.
// An inspector pass classifies each reduction element: elements referenced
// by a single processor (under the block schedule) are written directly in
// the shared array with no synchronization, while elements referenced by
// two or more processors ("conflicting") are privatized into compact
// per-processor arrays addressed through a remap table. Only the compact
// conflicting set is initialized and merged.
//
// sel wins on large arrays with little cross-processor sharing: it avoids
// rep's full-size sweeps and ll's per-access flag checks for the exclusive
// majority, paying only an indirection through the remap table.
type Selective struct{}

// Name returns "sel".
func (Selective) Name() string { return "sel" }

// classify runs the inspector: it returns the remap table (element ->
// compact index, -1 if exclusive) and the number of conflicting elements.
// The remap table is drawn from pool (nil-safe); the caller owns it.
func (Selective) classify(l *trace.Loop, procs int, pool *BufferPool) (remap []int32, numConflict int) {
	// toucher[e] = first processor seen touching e, or -2 if none,
	// -1 if touched by more than one processor.
	toucher := pool.Int32(l.NumElems)
	defer pool.PutInt32(toucher)
	fillInt32(toucher, -2)
	for p := 0; p < procs; p++ {
		lo, hi := blockBounds(l.NumIters(), procs, p)
		for i := lo; i < hi; i++ {
			for _, idx := range l.Iter(i) {
				switch toucher[idx] {
				case -2:
					toucher[idx] = int32(p)
				case int32(p), -1:
				default:
					toucher[idx] = -1
				}
			}
		}
	}
	remap = pool.Int32(l.NumElems)
	for e := range remap {
		if toucher[e] == -1 {
			remap[e] = int32(numConflict)
			numConflict++
		} else {
			remap[e] = -1
		}
	}
	return remap, numConflict
}

// Run executes the loop with selective privatization.
func (s Selective) Run(l *trace.Loop, procs int) []float64 {
	return s.RunInto(l, procs, nil, nil)
}

// RunInto executes the loop with selective privatization; the inspector's
// remap table and the compact conflicting-set arrays come from the
// context's pool. The inspector classifies against the static block
// partition the accumulation then executes. The accumulation is the
// scalar body (naiveAccumSel) for every operator; the conflicting-set
// merge is rep's ordered fold.
func (s Selective) RunInto(l *trace.Loop, procs int, ex *Exec, out []float64) []float64 {
	checkProcs(procs)
	neutral := l.Op.Neutral()
	pool := ex.pool()
	remap, numConflict := s.classify(l, procs, pool)
	defer pool.PutInt32(remap)

	out, fresh := ensureOut(out, l.NumElems)
	initNeutral(out, neutral, fresh)
	priv := ex.float64Slots(procs)

	parallelFor(procs, func(p int) {
		compact := pool.Float64(numConflict)
		initNeutral(compact, neutral, pool == nil)
		lo, hi := blockBounds(l.NumIters(), procs, p)
		naiveAccumSel(out, compact, remap, l, lo, hi)
		priv[p] = compact
	})

	// Merge only the conflicting elements, parallel over compact-index
	// ranges: fold each block of the compact arrays in processor order into
	// priv[0] (foldBlock, as rep merges), then scatter it into the
	// conflicting elements' shared slots, which still hold the neutral
	// element — so assigning the folded value is exact.
	if numConflict > 0 {
		// Invert the remap for the conflicting set.
		conflictElems := pool.Int32(numConflict)
		for e, c := range remap {
			if c >= 0 {
				conflictElems[c] = int32(e)
			}
		}
		block, fast := ex.mergeBlock(procs), ex.fastAdd(l)
		parallelFor(procs, func(p int) {
			lo, hi := blockBounds(numConflict, procs, p)
			for blo := lo; blo < hi; blo += block {
				dst := priv[0][blo:min(blo+block, hi)]
				foldBlock(dst, priv, blo, l.Op, fast)
				for c, v := range dst {
					out[conflictElems[blo+c]] = v
				}
			}
		})
		pool.PutInt32(conflictElems)
	}
	for p := range priv {
		pool.PutFloat64(priv[p])
	}
	return out
}
