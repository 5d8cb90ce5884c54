package reduction

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// gridLoops is the exact-grid population: random shapes over a 16-element
// hot set, plus one loop whose single element takes 300 000
// contributions, far more than any association could keep exact with
// arbitrary doubles.
func gridLoops() []*trace.Loop {
	rng := rand.New(rand.NewSource(12))
	var loops []*trace.Loop
	for i := 0; i < 19; i++ {
		elems := 64 + rng.Intn(4000)
		l := trace.NewLoop(fmt.Sprintf("grid-%02d", i), elems)
		hot := make([]int32, 16)
		for k := range hot {
			hot[k] = int32(rng.Intn(elems))
		}
		refs := make([]int32, 1+rng.Intn(12))
		for it, iters := 0, 100+rng.Intn(2000); it < iters; it++ {
			for k := range refs {
				if rng.Intn(2) == 0 {
					refs[k] = hot[rng.Intn(len(hot))]
				} else {
					refs[k] = int32(rng.Intn(elems))
				}
			}
			l.AddIter(refs...)
		}
		loops = append(loops, l)
	}
	one := trace.NewLoop("grid-one-element", 8)
	for it := 0; it < 300000/6; it++ {
		one.AddIter(3, 3, 3, 3, 3, 3)
	}
	return append(loops, one)
}

// TestExactGridEveryPathIsSequential is the contract trace.Value's grid
// buys: for add, max and min every scheme at every processor count, and
// the segment cut through SegPlan cold and warm, returns
// RunSequential's bits. Mul still rounds, so its cuts keep the cutOrder
// oracle elsewhere. A session has no cut: under every operator, its
// open and every delta read are RunSequential's bits over the mirrored
// loop.
func TestExactGridEveryPathIsSequential(t *testing.T) {
	ex := &Exec{Pool: NewBufferPool()}
	for _, base := range gridLoops() {
		for _, op := range []trace.Op{trace.OpAdd, trace.OpMax, trace.OpMin} {
			l := base.Clone()
			l.Op = op
			want := l.RunSequential()
			check := func(path string, got []float64) {
				t.Helper()
				if i := bitsEqual(got, want); i != -1 {
					t.Errorf("%s %v %s: element %d differs from RunSequential", l.Name, op, path, i)
				}
			}
			for _, procs := range []int{1, 2, 3, 4, 8} {
				for _, s := range All() {
					check(fmt.Sprintf("%s p%d", s.Name(), procs), s.Run(l, procs))
				}
				segIters := DefaultSegIters(l.NumIters(), procs)
				check(fmt.Sprintf("segment cut p%d", procs), cutOrder(l, segCuts(l, segIters)))
				plan, err := BuildSegPlanProcs([]*trace.Loop{l}, segIters, procs)
				if err != nil {
					t.Fatal(err)
				}
				cache := NewSegCache(l, segIters)
				dst := make([]float64, l.NumElems)
				for run := 1; run <= 2; run++ { // the second run reuses every segment
					clear(dst)
					plan.Run(procs, ex, cache, [][]float64{dst})
					check(fmt.Sprintf("SegPlan p%d run %d", procs, run), dst)
				}
			}
		}
		for _, op := range deltaOps {
			l := base.Clone()
			l.Op = op
			mirror := l.Clone()
			dst := make([]float64, l.NumElems)
			st, err := NewDeltaState(l, 0, 1, ex, dst)
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, mirror.RunSequential(), dst, fmt.Sprintf("%s %v session open", l.Name, op))
			rng := rand.New(rand.NewSource(int64(op)))
			for step := 0; step < 4; step++ {
				applyChecked(t, st, mirror, randomDeltas(rng, l, 16), dst, fmt.Sprintf("%s %v session step %d", l.Name, op, step))
			}
		}
	}
}
