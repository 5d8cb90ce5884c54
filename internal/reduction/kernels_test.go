package reduction

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// kernelSchemes are the schemes whose RunInto paths dispatch between
// the optimized kernels (kernels.go) and the retained scalar references
// (naive.go). sel and lw accumulate through the references alone, so
// their bits are pinned against RunSequential and the cut oracle instead
// (TestExactGridEveryPathIsSequential, TestSchemesWithMulOperator).
var kernelSchemes = []Scheme{Rep{}, LinkedList{}, Hash{}}

// remainderLoops builds loops whose per-iteration reference counts
// straddle the 4-way unroll boundary (0, 1, 3, 4, 5, 7, 8, 9 refs) and
// whose element counts straddle the 8-way combine boundary (4095, 4096,
// 4097), plus degenerate shapes: no iterations, a single element, and a
// sparse pattern where most of the array is never touched.
func remainderLoops() []*trace.Loop {
	var loops []*trace.Loop
	for _, refs := range []int{1, 3, 4, 5, 7, 8, 9} {
		loops = append(loops, randomLoop(257, 64, refs, int64(100+refs)))
	}
	for _, elems := range []int{4095, 4096, 4097} {
		loops = append(loops, randomLoop(elems, 300, 4, int64(elems)))
	}
	empty := trace.NewLoop("empty", 16)
	noRefs := trace.NewLoop("norefs", 16)
	for i := 0; i < 8; i++ {
		noRefs.AddIter()
	}
	one := trace.NewLoop("one", 1)
	for i := 0; i < 9; i++ {
		one.AddIter(0, 0, 0)
	}
	sparse := randomLoop(8192, 40, 2, 7)
	loops = append(loops, empty, noRefs, one, sparse, clusteredLoop(1024, 500, 9))
	return loops
}

func bitsEqual(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestFastKernelsBitIdenticalToNaive is the kernel equivalence property:
// for every kernel scheme, every remainder-straddling loop shape and several
// processor counts, the optimized OpAdd path must produce bit-for-bit the
// result of the scalar reference — not merely within tolerance. The two
// paths apply contributions in the same element-local order, so any
// divergence is a kernel bug, not FP reassociation.
func TestFastKernelsBitIdenticalToNaive(t *testing.T) {
	pool := NewBufferPool()
	fastEx := &Exec{Pool: pool}
	naiveEx := &Exec{Pool: pool, naive: true}
	for _, l := range remainderLoops() {
		for _, procs := range []int{1, 3, 8} {
			for _, s := range kernelSchemes {
				got := s.RunInto(l, procs, fastEx, nil)
				want := s.RunInto(l, procs, naiveEx, nil)
				if i := bitsEqual(got, want); i != -1 {
					t.Fatalf("%s procs=%d loop=%s(%d elems): fast diverges from naive at element %d: %x vs %x",
						s.Name(), procs, l.Name, l.NumElems, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestCombineAddBitIdenticalToCombineOp exercises the 8-way pairwise
// combine across lengths straddling the unroll width, including
// mismatched dst/src lengths that take the guarded remainder.
func TestCombineAddBitIdenticalToCombineOp(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 4095, 4096, 4097} {
		for _, srcN := range []int{n, n / 2, n + 3} {
			mk := func(ln int, scale float64) []float64 {
				s := make([]float64, ln)
				for i := range s {
					s[i] = scale * float64(i+1) / 3
				}
				return s
			}
			dstFast, dstNaive := mk(n, 1), mk(n, 1)
			src := mk(srcN, 0.125)
			combineAdd(dstFast, src)
			combineOp(dstNaive, src, trace.OpAdd)
			if i := bitsEqual(dstFast, dstNaive); i != -1 {
				t.Fatalf("combineAdd(n=%d, srcN=%d) diverges at %d", n, srcN, i)
			}
		}
	}
}

// TestFastKernelsAliasedDst re-runs each kernel scheme into the same out buffer,
// pre-filled with stale garbage from the previous call; the recycled
// destination must not leak into the new result.
func TestFastKernelsAliasedDst(t *testing.T) {
	pool := NewBufferPool()
	fastEx := &Exec{Pool: pool}
	l := randomLoop(1500, 800, 5, 42)
	for _, s := range kernelSchemes {
		want := s.Run(l, 8)
		out := make([]float64, l.NumElems)
		for i := range out {
			out[i] = math.NaN()
		}
		for round := 0; round < 3; round++ {
			out = s.RunInto(l, 8, fastEx, out)
			if i := bitsEqual(out, want); i != -1 {
				t.Fatalf("%s round %d: aliased dst diverges at element %d", s.Name(), round, i)
			}
		}
	}
}

// TestMergeBlockInvariance is the ordered merge's association property:
// the per-block sizing hook partitions the element space but must not
// change the fold order within an element, so every block size yields
// bit-identical results.
func TestMergeBlockInvariance(t *testing.T) {
	l := randomLoop(5000, 3000, 4, 23)
	for _, s := range []Scheme{Rep{}, Selective{}} {
		var want []float64
		for _, block := range []int{1, 7, 256, 3640, 1 << 20} {
			ex := &Exec{Pool: NewBufferPool(), MergeBlockElems: block}
			got := s.RunInto(l, 8, ex, nil)
			if want == nil {
				want = got
				continue
			}
			if i := bitsEqual(got, want); i != -1 {
				t.Fatalf("%s: block=%d diverges at element %d", s.Name(), block, i)
			}
		}
	}
}

// TestMergeBlockForCache pins the sizing hook's contract: the paper's
// Table 1 geometry (512 KB L2, 8 procs) yields 3640-element blocks,
// larger caches yield larger blocks, more procs smaller ones, and the
// floor keeps degenerate geometries amortizable.
func TestMergeBlockForCache(t *testing.T) {
	if got := MergeBlockForCache(512<<10, 8); got != 3640 {
		t.Fatalf("paper geometry: got %d, want 3640", got)
	}
	if MergeBlockForCache(1<<20, 8) <= MergeBlockForCache(512<<10, 8) {
		t.Fatal("block size must grow with L2")
	}
	if MergeBlockForCache(512<<10, 16) >= MergeBlockForCache(512<<10, 2) {
		t.Fatal("block size must shrink with procs")
	}
	if got := MergeBlockForCache(1024, 64); got != 256 {
		t.Fatalf("floor: got %d, want 256", got)
	}
	if got := MergeBlockForCache(512<<10, 0); got != MergeBlockForCache(512<<10, 1) {
		t.Fatalf("procs<1 must clamp to 1, got %d", got)
	}
	ex := &Exec{MergeBlockElems: 123}
	if got := ex.mergeBlock(8); got != 123 {
		t.Fatalf("override: got %d, want 123", got)
	}
	var nilEx *Exec
	if got := nilEx.mergeBlock(8); got != MergeBlockForCache(defaultL2Bytes, 8) {
		t.Fatalf("nil Exec default: got %d", got)
	}
}

// TestNonAddOpsTakeNaivePath pins the dispatch contract: only OpAdd runs
// the specialized kernels, and the naive path still matches the
// sequential semantics for every operator.
func TestNonAddOpsTakeNaivePath(t *testing.T) {
	base := randomLoop(700, 500, 4, 31)
	for _, op := range []trace.Op{trace.OpAdd, trace.OpMul, trace.OpMax, trace.OpMin} {
		l := base.Clone()
		l.Op = op
		ex := &Exec{Pool: NewBufferPool()}
		if got, want := ex.fastAdd(l), op == trace.OpAdd; got != want {
			t.Fatalf("fastAdd(%v) = %v, want %v", op, got, want)
		}
		want := l.RunSequential()
		for _, s := range All() {
			assertSameResult(t, s.Name()+"/"+op.String(), s.RunInto(l, 8, ex, nil), want)
		}
	}
}
