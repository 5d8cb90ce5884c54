package reduction

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/trace"
)

// lazyReference is ll's lazy scheme run from the retained scalar
// references alone: each processor's block through naiveAccumLazy into
// fresh arrays, the lists folded into out by naiveMergeList in processor
// order.
func lazyReference(l *trace.Loop, procs int) []float64 {
	out := make([]float64, l.NumElems)
	fill(out, l.Op.Neutral())
	for p := 0; p < procs; p++ {
		v := make([]float64, l.NumElems)
		next := make([]int32, l.NumElems)
		fillInt32(next, -2)
		lo, hi := blockBounds(l.NumIters(), procs, p)
		head := naiveAccumLazy(v, next, -1, l, lo, hi)
		naiveMergeList(out, v, next, head, l.Op)
	}
	return out
}

// boundaryLoop builds a loop of exactly procs·perProc references (1 to 5
// per iteration) over elems elements, so len(refs)/procs == perProc.
func boundaryLoop(elems, procs, perProc int, seed int64) *trace.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop("boundary", elems)
	for left := procs * perProc; left > 0; {
		refs := make([]int32, min(1+rng.Intn(5), left))
		for k := range refs {
			refs[k] = int32(rng.Intn(elems))
		}
		l.AddIter(refs...)
		left -= len(refs)
	}
	return l
}

// TestLinkedListDenseEqualsLazy straddles ll's density predicate: at
// len(refs)/procs one below, at and one above NumElems/8, every operator,
// the fast and naive kernels, pooled and unpooled, must give bit-for-bit
// what the lazy reference gives — the eager path's claim that folding an
// untouched processor's neutral entry changes nothing.
func TestLinkedListDenseEqualsLazy(t *testing.T) {
	const elems = 2400
	pool := NewBufferPool()
	execs := map[string]*Exec{
		"nil":          nil,
		"nil-pool":     {},
		"pooled":       {Pool: pool},
		"pooled-naive": {Pool: pool, naive: true},
	}
	for _, procs := range []int{1, 2, 3, 8} {
		for _, delta := range []int{-1, 0, 1} {
			base := boundaryLoop(elems, procs, elems/8+delta, int64(10*procs+delta))
			if _, refs := base.Flat(); (len(refs)/procs >= elems/8) != (delta >= 0) {
				t.Fatalf("procs=%d delta=%d: loop sits on the wrong side of the predicate", procs, delta)
			}
			for _, op := range deltaOps {
				l := base.Clone()
				l.Op = op
				want := lazyReference(l, procs)
				for name, ex := range execs {
					got := LinkedList{}.RunInto(l, procs, ex, nil)
					if i := bitsEqual(got, want); i != -1 {
						t.Fatalf("procs=%d refs/procs=NumElems/8%+d op=%v exec=%s: element %d = %x, lazy reference %x",
							procs, delta, op, name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestLinkedListWarmAllocs bounds what a warm pooled run allocates at
// procs 8: the sparse path no more than the 35 allocs/op BENCH_engine.json
// recorded for Kernel/ll while ll was lazy on every loop, the dense path
// that plus one more fork-join (its merge runs on procs goroutines).
func TestLinkedListWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
	}
	const recordedAllocs = 35
	hit := make([]int, benchProcs)
	forkJoin := testing.AllocsPerRun(50, func() { parallelFor(benchProcs, func(p int) { hit[p]++ }) })
	for _, c := range []struct {
		name  string
		l     *trace.Loop
		bound float64
	}{
		{"sparse", randomLoop(65536, 500, 2, 1), recordedAllocs},
		{"dense", randomLoop(4096, 2000, 4, 2), recordedAllocs + forkJoin},
	} {
		ex := &Exec{Pool: NewBufferPool()}
		out := LinkedList{}.RunInto(c.l, benchProcs, ex, nil)
		allocs := testing.AllocsPerRun(50, func() { out = LinkedList{}.RunInto(c.l, benchProcs, ex, out) })
		if allocs > c.bound {
			t.Errorf("%s: a warm run allocates %.0f times, bound %.0f", c.name, allocs, c.bound)
		}
	}
}

// TestLinkedListDenseBatchConcurrent runs the dense path from several
// goroutines at once, each with its own operator and Exec over one
// shared pool, at merge block sizes that cut the processors' element
// ranges unevenly: under -race it checks that the range-parallel merge
// writes disjoint parts of out, and every round must equal the unpooled
// result.
func TestLinkedListDenseBatchConcurrent(t *testing.T) {
	base := randomLoop(3000, 1200, 4, 12)
	const procs = 8
	pool := NewBufferPool()
	var wg sync.WaitGroup
	for g, block := range []int{1, 7, 256, 0} {
		l := base.Clone()
		l.Op = deltaOps[g]
		want := LinkedList{}.Run(l, procs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := &Exec{Pool: pool, MergeBlockElems: block}
			out := make([]float64, l.NumElems)
			for round := 0; round < 4; round++ {
				fill(out, math.NaN())
				out = LinkedList{}.RunInto(l, procs, ex, out)
				if i := bitsEqual(out, want); i != -1 {
					t.Errorf("%v block %d round %d: result diverges at %d", l.Op, block, round, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
