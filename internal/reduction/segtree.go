package reduction

// This file holds the segment-combine kernel behind the simplified
// execution plan (plan.go): after the per-segment partial sums are
// computed (accumFlatAdd over each segment's iteration range), every
// batch member folds its per-segment parts into its destination with a
// stride-doubling pairwise tree over the segment index. This is the
// segment association only: the schemes fold processor partials in
// processor order (foldBlock). The fold must not destroy its inputs: a
// shared segment's partial sum is read by several members, and a cached
// segment sum outlives the batch. The kernel therefore folds each element
// through a fixed-size register/stack array instead of combining the part
// buffers in place.
//
// The same BCE discipline as kernels.go applies: scripts/bce_check.sh
// compiles this file with -d=ssa/check_bce and fails on any unmarked
// bounds check. The per-part loads carry //bce:gather markers (the proof
// that every part has numElems elements lives in the planner, outside
// the function); the t[] scratch accesses are check-free because the
// width guard pins n to the array's length.

// maxSegTreeWidth bounds how many segment parts one combine folds — and
// therefore how many segments a plan may decompose the iteration space
// into. 64 matches the schemes' processor limit and keeps the fold scratch
// on the stack.
const maxSegTreeWidth = 64

// combineTreeAdd writes dst[e] = pairwise-tree sum of parts[*][e] for
// every e in [lo, hi). len(parts) must be in [1, maxSegTreeWidth] and
// every part must have at least hi elements; dst is assigned, not
// accumulated into.
func combineTreeAdd(dst []float64, parts [][]float64, lo, hi int) {
	n := len(parts)
	if lo >= hi || n == 0 {
		return
	}
	if n > maxSegTreeWidth {
		panic("reduction: segment combine wider than maxSegTreeWidth")
	}
	if n == 1 {
		copy(dst[lo:hi], parts[0][lo:hi]) //bce:slice
		return
	}
	// The fold scratch is the width guard made visible to the prove
	// pass: slicing the stack array to n lets the loads ride the range
	// condition, and the fold walks a shrinking slice (the kernels.go
	// idiom) because prove abandons induction variables with
	// multiplicative steps — `for q := 0; q+m < n; q += 2*m` keeps its
	// checks, `rest[0] += rest[m]` under `len(rest) > m` does not.
	var scratch [maxSegTreeWidth]float64
	t := scratch[:n] //bce:slice
	for e := lo; e < hi; e++ {
		for k := range t {
			t[k] = parts[k][e] //bce:gather
		}
		for m := 1; m < len(t); m *= 2 {
			// m is in [1, 63] (m < len(t) <= 64), so the mask is the
			// identity — it exists to hand prove the non-negative range
			// the multiplicative induction variable loses.
			mm := m & (maxSegTreeWidth - 1)
			rest := t
			for len(rest) > mm {
				rest[0] += rest[mm]
				if len(rest) <= 2*mm {
					break
				}
				rest = rest[2*mm:]
			}
		}
		dst[e] = t[0] //bce:gather
	}
}

// foldColAdd is combineTreeAdd for one element whose partials are
// already contiguous: it returns the pairwise-tree sum of col, the
// element-major column a streaming session (delta.go) keeps per element.
// len(col) must be in [1, maxSegTreeWidth]; col is not modified. Same
// association, same shrinking-slice fold as combineTreeAdd — only the
// gather is a copy of one run of cache lines, which leaves the function
// without a single bounds check (no //bce: marker: bce_check.sh fails on
// any that appears).
func foldColAdd(col []float64) float64 {
	n := len(col)
	if n == 0 || n > maxSegTreeWidth {
		panic("reduction: column fold needs 1..maxSegTreeWidth partials")
	}
	var scratch [maxSegTreeWidth]float64
	t := scratch[:n]
	copy(t, col)
	for m := 1; m < len(t); m *= 2 {
		mm := m & (maxSegTreeWidth - 1)
		rest := t
		for len(rest) > mm {
			rest[0] += rest[mm]
			if len(rest) <= 2*mm {
				break
			}
			rest = rest[2*mm:]
		}
	}
	return t[0]
}
