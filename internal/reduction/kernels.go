package reduction

import "repro/internal/trace"

// This file holds the scalar-optimized hot kernels behind the RunInto
// fast paths of rep, ll and hash (sel's conflicting-set merge shares
// rep's ordered fold; sel's and lw's accumulations run their references
// in naive.go, where unrolling measured within noise). The paper's
// applications reduce with floating-point addition exclusively (trace.Op
// documents this), so the specialized kernels cover trace.OpAdd; the
// other operators run the retained scalar references in naive.go. Each
// kernel applies contributions in exactly
// the order its naive counterpart does, so fast and naive executions of
// the same loop are bit-for-bit identical (kernels_test.go proves it
// across unroll remainders) — unrolling only widens the independent work
// between the dependent gather updates.
//
// The loops are written so the compiler's prove pass eliminates every
// bounds check it possibly can (idioms verified against go1.24's prove
// pass, which is narrower than one might hope):
//
//   - unrolled bodies index a shrinking slice by constants (rs[0..3],
//     then rs = rs[4:]) guarded by len(rs) >= 4 — the one unroll shape
//     prove reliably discharges; `k+4 <= len(rs)` headers do not work,
//   - adjacent offset pairs read backward (offs[ii-1], offs[ii] under
//     ii < len(offs)) — the forward pair (offs[ii+1] under ii+1 < len)
//     defeats prove,
//   - pairwise combines test both lengths in the loop condition and
//     guard the remainder explicitly,
//   - trace.Value calls (pure ALU, independent across the unroll lanes)
//     are issued before the dependent w[idx] updates — the "split
//     index/value passes" idiom: the value hashes pipeline while the
//     gathers wait on cache.
//
// What cannot be eliminated are the data-dependent accesses themselves:
// w[idx] with a runtime subscript always carries one check, because the
// proof that refs are in range lives in trace.Loop validation, outside
// the function. Those lines carry a //bce:gather marker (//bce:slice for
// the per-block sub-slicing); scripts/bce_check.sh compiles this package
// with -d=ssa/check_bce and fails if a bounds check appears on any
// unmarked line of this file, so the idioms cannot silently rot.

// combineAdd folds src into dst pairwise: dst[i] += src[i] over the
// common prefix. The 8-way unrolled body is check-free because the loop
// condition tests both lengths; every lane is an independent add, so the
// FP units pipeline instead of serializing on a procs-deep accumulate
// chain the way a per-element combine sweep would.
func combineAdd(dst, src []float64) {
	for len(dst) >= 8 && len(src) >= 8 {
		dst[0] += src[0]
		dst[1] += src[1]
		dst[2] += src[2]
		dst[3] += src[3]
		dst[4] += src[4]
		dst[5] += src[5]
		dst[6] += src[6]
		dst[7] += src[7]
		dst = dst[8:]
		src = src[8:]
	}
	for i := range dst {
		if i < len(src) {
			dst[i] += src[i]
		}
	}
}

// accumFlatAdd is rep's accumulation kernel: it folds iterations
// [iterLo, iterHi) of the flattened (offsets, refs) stream into the
// private array w.
func accumFlatAdd(w []float64, offsets, refs []int32, iterLo, iterHi int) {
	if iterLo >= iterHi {
		return
	}
	offs := offsets[iterLo : iterHi+1] //bce:slice
	for ii := 1; ii < len(offs); ii++ {
		o0, o1 := offs[ii-1], offs[ii]
		rs := refs[o0:o1] //bce:slice
		i := iterLo + ii - 1
		k := 0
		for ; len(rs) >= 4; k += 4 {
			i0, i1, i2, i3 := rs[0], rs[1], rs[2], rs[3]
			v0 := trace.Value(i, k, i0)
			v1 := trace.Value(i, k+1, i1)
			v2 := trace.Value(i, k+2, i2)
			v3 := trace.Value(i, k+3, i3)
			w[i0] += v0 //bce:gather
			w[i1] += v1 //bce:gather
			w[i2] += v2 //bce:gather
			w[i3] += v3 //bce:gather
			rs = rs[4:]
		}
		for j, idx := range rs {
			w[idx] += trace.Value(i, k+j, idx) //bce:gather
		}
	}
}

// accumLazyAdd is ll's accumulation kernel: like accumFlatAdd, but every
// first touch of an element initializes its value slot and threads it
// onto the private linked list (next[idx] == -2 means untouched). It
// returns the new list head.
func accumLazyAdd(v []float64, next []int32, head int32, offsets, refs []int32, iterLo, iterHi int) int32 {
	if iterLo >= iterHi {
		return head
	}
	offs := offsets[iterLo : iterHi+1] //bce:slice
	for ii := 1; ii < len(offs); ii++ {
		o0, o1 := offs[ii-1], offs[ii]
		rs := refs[o0:o1] //bce:slice
		i := iterLo + ii - 1
		k := 0
		for ; len(rs) >= 4; k += 4 {
			i0, i1, i2, i3 := rs[0], rs[1], rs[2], rs[3]
			v0 := trace.Value(i, k, i0)
			v1 := trace.Value(i, k+1, i1)
			v2 := trace.Value(i, k+2, i2)
			v3 := trace.Value(i, k+3, i3)
			if next[i0] == -2 { //bce:gather
				v[i0] = 0       //bce:gather
				next[i0] = head //bce:gather
				head = i0
			}
			v[i0] += v0         //bce:gather
			if next[i1] == -2 { //bce:gather
				v[i1] = 0       //bce:gather
				next[i1] = head //bce:gather
				head = i1
			}
			v[i1] += v1         //bce:gather
			if next[i2] == -2 { //bce:gather
				v[i2] = 0       //bce:gather
				next[i2] = head //bce:gather
				head = i2
			}
			v[i2] += v2         //bce:gather
			if next[i3] == -2 { //bce:gather
				v[i3] = 0       //bce:gather
				next[i3] = head //bce:gather
				head = i3
			}
			v[i3] += v3 //bce:gather
			rs = rs[4:]
		}
		for j, idx := range rs {
			val := trace.Value(i, k+j, idx)
			if next[idx] == -2 { //bce:gather
				v[idx] = 0       //bce:gather
				next[idx] = head //bce:gather
				head = idx
			}
			v[idx] += val //bce:gather
		}
	}
	return head
}

// mergeListAdd is ll's sparse merge kernel: it walks one processor's
// first-touch list and folds its private values into out.
func mergeListAdd(out, v []float64, next []int32, head int32) {
	for e := head; e >= 0; e = next[e] { //bce:gather
		out[e] += v[e] //bce:gather
	}
}

// mergeOrderedAdd is the merge kernel of rep, dense ll, sel's conflicting
// set and SegPlan's segment parts: it sets dst to the sum of the
// partials' elements [off, off+len(dst)), folded left to right in order —
// per element the chain of adds the list walk applies, since an untouched
// copy contributes its neutral +0 exactly. The copy and each fold run
// over the shrinking-slice combineAdd, so the only checks are the
// per-copy sub-slices.
func mergeOrderedAdd(dst []float64, priv [][]float64, off int) {
	for p, src := range priv {
		src = src[off:] //bce:slice
		if p == 0 {
			copy(dst, src)
		} else {
			combineAdd(dst, src)
		}
	}
}

// accumHashAdd is hash's accumulation kernel: the open-addressing update
// loop with the probe sequence inlined (same hash, same linear probing,
// same insertion order as hashTable.update, so the resulting table layout
// is bit-identical to the naive path's).
func (t *hashTable) accumHashAdd(offsets, refs []int32, iterLo, iterHi int) {
	if iterLo >= iterHi {
		return
	}
	keys, vals, mask := t.keys, t.vals, t.mask
	inserted := 0
	offs := offsets[iterLo : iterHi+1] //bce:slice
	for ii := 1; ii < len(offs); ii++ {
		o0, o1 := offs[ii-1], offs[ii]
		rs := refs[o0:o1] //bce:slice
		i := iterLo + ii - 1
		for k, idx := range rs {
			val := trace.Value(i, k, idx)
			s := hashKey(idx) & mask
			for keys[s] != -1 && keys[s] != idx { //bce:gather
				s = (s + 1) & mask
			}
			if keys[s] == -1 { //bce:gather
				keys[s] = idx //bce:gather
				vals[s] = 0   //bce:gather
				inserted++
			}
			vals[s] += val //bce:gather
		}
	}
	t.n += inserted
}

// mergeTableAdd is hash's merge kernel: it walks one table's entries and
// folds the occupied accumulators into out.
func mergeTableAdd(out []float64, keys []int32, vals []float64) {
	for s, key := range keys {
		if key >= 0 && s < len(vals) {
			out[key] += vals[s] //bce:gather
		}
	}
}
