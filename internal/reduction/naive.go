package reduction

import "repro/internal/trace"

// This file retains the scalar element-at-a-time reference kernels the
// optimized loops in kernels.go replaced on the hot path. They serve
// four roles:
//
//   - the execution path for the non-add operators (mul/max/min), which
//     the paper's applications never use in anger,
//   - the only accumulation bodies of sel and lw, for every operator
//     (naiveAccumSel, naiveAccumOwned),
//   - the semantic oracle for the property tests in kernels_test.go:
//     a fast kernel and its naive counterpart apply contributions in the
//     same element-local order with the same operations, so their results
//     must match bit-for-bit on every input,
//   - readable documentation of what each scheme's hot loop computes.
//
// Any change to a kernel in kernels.go that is not mirrored here (or vice
// versa) fails TestFastKernelsBitIdenticalToNaive.

// naiveAccumFlat is accumFlatAdd's reference: fold iterations [lo, hi)
// into the private array w under op.
func naiveAccumFlat(w []float64, l *trace.Loop, lo, hi int) {
	op := l.Op
	for i := lo; i < hi; i++ {
		for k, idx := range l.Iter(i) {
			w[idx] = op.Apply(w[idx], trace.Value(i, k, idx))
		}
	}
}

// naiveAccumLazy is accumLazyAdd's reference: lazy first-touch
// initialization threading touched elements onto a private list.
func naiveAccumLazy(v []float64, next []int32, head int32, l *trace.Loop, lo, hi int) int32 {
	op := l.Op
	neutral := op.Neutral()
	for i := lo; i < hi; i++ {
		for k, idx := range l.Iter(i) {
			if next[idx] == -2 {
				v[idx] = neutral
				next[idx] = head
				head = idx
			}
			v[idx] = op.Apply(v[idx], trace.Value(i, k, idx))
		}
	}
	return head
}

// naiveMergeList is mergeListAdd's reference.
func naiveMergeList(out, v []float64, next []int32, head int32, op trace.Op) {
	for e := head; e >= 0; e = next[e] {
		out[e] = op.Apply(out[e], v[e])
	}
}

// naiveMergeOrdered is mergeOrderedAdd's reference: dst is the private
// copies' elements [off, off+len(dst)) folded in processor order under op.
func naiveMergeOrdered(dst []float64, priv [][]float64, off int, op trace.Op) {
	copy(dst, priv[0][off:])
	for _, src := range priv[1:] {
		combineOp(dst, src[off:], op)
	}
}

// naiveAccumSel is sel's accumulation: conflicting elements fold into
// the compact array through the remap table, exclusive elements update
// out in place.
func naiveAccumSel(out, compact []float64, remap []int32, l *trace.Loop, lo, hi int) {
	op := l.Op
	for i := lo; i < hi; i++ {
		for k, idx := range l.Iter(i) {
			v := trace.Value(i, k, idx)
			if c := remap[idx]; c >= 0 {
				compact[c] = op.Apply(compact[c], v)
			} else {
				out[idx] = op.Apply(out[idx], v)
			}
		}
	}
}

// naiveAccumOwned is lw's accumulation: execute the replicated
// iteration list, applying only updates to owned elements.
func naiveAccumOwned(out []float64, elemLo, elemHi int, iters []int32, l *trace.Loop) {
	op := l.Op
	for _, it := range iters {
		i := int(it)
		for k, idx := range l.Iter(i) {
			if int(idx) >= elemLo && int(idx) < elemHi {
				out[idx] = op.Apply(out[idx], trace.Value(i, k, idx))
			}
		}
	}
}

// naiveAccumHash is accumHashAdd's reference: the hashTable.update path.
// Same hash function, same linear probe, same insertion order — the
// resulting table layout matches the fast kernel's exactly.
func (t *hashTable) naiveAccumHash(l *trace.Loop, lo, hi int) {
	for i := lo; i < hi; i++ {
		for k, idx := range l.Iter(i) {
			t.update(idx, trace.Value(i, k, idx), l.Op)
		}
	}
}

// naiveMergeTable is mergeTableAdd's reference.
func naiveMergeTable(out []float64, keys []int32, vals []float64, op trace.Op) {
	for s, key := range keys {
		if key >= 0 {
			out[key] = op.Apply(out[key], vals[s])
		}
	}
}

// combineOp is combineAdd's reference: fold src into dst pairwise under
// op.
func combineOp(dst, src []float64, op trace.Op) {
	if len(src) < len(dst) {
		dst = dst[:len(src)]
	}
	for i := range dst {
		dst[i] = op.Apply(dst[i], src[i])
	}
}
