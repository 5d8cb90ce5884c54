package reduction

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/trace"
)

// The delta-path contract has one oracle: applying a delta stream to a
// DeltaState and reading the rolling result must be bit-for-bit
// (math.Float64bits) RunSequential over a mirror loop mutated the same
// way, under every operator — add through its two exact updates, mul,
// max and min through a sequential re-reduction. The tests below pin
// that across random loops, the batch shapes (iteration seams, empty, a
// batch touching every iteration, every reference at once), the element
// shapes (swapped targets, no-op redirects, pile-ups, orphaned
// elements), a long stream, rejected batches and the exact-range guard.

var deltaOps = []trace.Op{trace.OpAdd, trace.OpMul, trace.OpMax, trace.OpMin}

// deltaLoop builds a loop with variable-length (including empty)
// iterations so delta positions land on ragged iteration boundaries.
func deltaLoop(elems, iters int, op trace.Op, seed int64) *trace.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop("delta", elems)
	l.Op = op
	l.WorkPerIter = 10
	var refs []int32
	for i := 0; i < iters; i++ {
		refs = refs[:0]
		for k := rng.Intn(4); k > 0; k-- {
			refs = append(refs, int32(rng.Intn(elems)))
		}
		l.AddIter(refs...)
	}
	return l
}

// randomDeltas draws n distinct positions (sorted, strictly increasing)
// with fresh random refs — the wire-contract shape of one SUBMIT_DELTA.
func randomDeltas(rng *rand.Rand, l *trace.Loop, n int) []RefDelta {
	total := l.TotalRefs()
	if total == 0 {
		return nil
	}
	if n > total {
		n = total
	}
	seen := make(map[int32]bool, n)
	ds := make([]RefDelta, 0, n)
	for len(ds) < n {
		p := int32(rng.Intn(total))
		if seen[p] {
			continue
		}
		seen[p] = true
		ds = append(ds, RefDelta{Pos: p, Ref: int32(rng.Intn(l.NumElems))})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
	return ds
}

// applyMirror replays a delta batch onto the oracle's mirror loop.
func applyMirror(m *trace.Loop, ds []RefDelta) {
	_, refs := m.Flat()
	for _, d := range ds {
		refs[d.Pos] = d.Ref
	}
}

// touchedIters counts the distinct iterations of l the batch's
// positions fall in, by a linear walk over the offsets.
func touchedIters(l *trace.Loop, ds []RefDelta) int {
	offs, _ := l.Flat()
	n, last := 0, -1
	for _, d := range ds {
		it := 0
		for offs[it+1] <= d.Pos {
			it++
		}
		if it != last {
			n, last = n+1, it
		}
	}
	return n
}

func requireBitEqual(t *testing.T, want, got []float64, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", ctx, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: elem %d: session %x (%g) != oracle %x (%g)",
				ctx, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// applyChecked applies ds to st and to the mirror, and holds the read
// and the stats to the oracle.
func applyChecked(t *testing.T, st *DeltaState, mirror *trace.Loop, ds []RefDelta, dst []float64, ctx string) {
	t.Helper()
	stats, err := st.Apply(ds, 2, nil, dst)
	if err != nil {
		t.Fatalf("%s: Apply: %v", ctx, err)
	}
	if n := touchedIters(mirror, ds); stats.Computed != n || stats.Reused != mirror.NumIters()-n {
		t.Fatalf("%s: computed %d reused %d, want %d/%d", ctx, stats.Computed, stats.Reused, n, mirror.NumIters()-n)
	}
	applyMirror(mirror, ds)
	requireBitEqual(t, mirror.RunSequential(), dst, ctx)
}

// TestDeltaStateMatchesOracle is the core property test: random loops,
// random delta streams, every op — every read must be RunSequential's
// bits over the mutated mirror.
func TestDeltaStateMatchesOracle(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		op := deltaOps[trial%len(deltaOps)]
		elems := 1 + rng.Intn(200)
		l := deltaLoop(elems, rng.Intn(400), op, int64(900+trial))
		mirror := l.Clone()

		dst := make([]float64, elems)
		st, err := NewDeltaState(l, 0, 1, nil, dst)
		if err != nil {
			t.Fatalf("trial %d: NewDeltaState: %v", trial, err)
		}
		requireBitEqual(t, mirror.RunSequential(), dst, "open read")
		for step := 0; step < 6; step++ {
			applyChecked(t, st, mirror, randomDeltas(rng, l, rng.Intn(12)), dst, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
}

// TestDeltaStateStraddlesSegments puts a batch on either side of every
// iteration seam — the last reference of one iteration, the first of
// the next — so each batch lands in exactly two reuse units and the
// update of each must use its own iteration's contribution.
func TestDeltaStateStraddlesSegments(t *testing.T) {
	const elems, iters = 64, 120
	for _, op := range deltaOps {
		l := trace.NewLoop("straddle", elems)
		l.Op = op
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < iters; i++ {
			l.AddIter(int32(rng.Intn(elems)), int32(rng.Intn(elems)), int32(rng.Intn(elems)))
		}
		mirror := l.Clone()
		dst := make([]float64, elems)
		st, err := NewDeltaState(l, 0, 2, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		if st.SegIters() != 1 || st.Segments() != iters {
			t.Fatalf("reuse unit %d iterations, %d units; want 1 and %d", st.SegIters(), st.Segments(), iters)
		}
		offs, _ := l.Flat()
		for it := 1; it < iters; it++ {
			ds := []RefDelta{
				{Pos: offs[it] - 1, Ref: int32(rng.Intn(elems))},
				{Pos: offs[it], Ref: int32(rng.Intn(elems))},
			}
			applyChecked(t, st, mirror, ds, dst, fmt.Sprintf("%v seam %d", op, it))
		}
	}
}

// TestDeltaStateEmptyBatch pins the empty-delta shape: nothing is
// computed, every iteration is reused, and the read is the oracle's.
func TestDeltaStateEmptyBatch(t *testing.T) {
	for _, op := range deltaOps {
		l := deltaLoop(50, 90, op, 11)
		dst := make([]float64, 50)
		st, err := NewDeltaState(l, 8, 2, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range [][]RefDelta{nil, {}} {
			stats, err := st.Apply(ds, 2, nil, dst)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Computed != 0 || stats.Reused != l.NumIters() {
				t.Fatalf("%v empty batch: computed %d reused %d, want 0/%d", op, stats.Computed, stats.Reused, l.NumIters())
			}
			requireBitEqual(t, l.RunSequential(), dst, fmt.Sprintf("%v empty-batch read", op))
		}
	}
}

// TestDeltaStateFullTouch pins the batches that touch everything: one
// delta in every iteration (every reuse unit computed, none reused),
// then every reference at once.
func TestDeltaStateFullTouch(t *testing.T) {
	const elems, iters = 40, 96
	for _, op := range deltaOps {
		l := trace.NewLoop("fulltouch", elems)
		l.Op = op
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < iters; i++ {
			l.AddIter(int32(rng.Intn(elems)), int32(rng.Intn(elems)), int32(rng.Intn(elems)))
		}
		mirror := l.Clone()
		dst := make([]float64, elems)
		st, err := NewDeltaState(l, 12, 3, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		offs, _ := l.Flat()
		var ds []RefDelta
		for it := 0; it < iters; it++ {
			ds = append(ds, RefDelta{Pos: offs[it] + int32(it%3), Ref: int32(rng.Intn(elems))})
		}
		stats, err := st.Apply(ds, 3, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Computed != iters || stats.Reused != 0 {
			t.Fatalf("%v one per iteration: computed %d reused %d, want %d/0", op, stats.Computed, stats.Reused, iters)
		}
		applyMirror(mirror, ds)
		requireBitEqual(t, mirror.RunSequential(), dst, fmt.Sprintf("%v one-per-iteration read", op))

		ds = ds[:0]
		for p := 0; p < l.TotalRefs(); p++ {
			ds = append(ds, RefDelta{Pos: int32(p), Ref: int32(rng.Intn(elems))})
		}
		applyChecked(t, st, mirror, ds, dst, fmt.Sprintf("%v all-refs read", op))
	}
}

// shapeLoop is a hand-built loop for the element-shape tests: 8
// iterations of 4 references over 8 elements (the reference at flat
// position p sits in iteration p/4). Element 5 is referenced only by
// iteration 2.
func shapeLoop(op trace.Op) *trace.Loop {
	l := trace.NewLoop("shapes", 8)
	l.Op = op
	for _, it := range [][]int32{
		{0, 1, 2, 3}, {2, 3, 0, 0}, {5, 5, 1, 4}, {6, 0, 3, 3},
		{7, 2, 1, 1}, {4, 4, 6, 0}, {3, 2, 1, 0}, {7, 7, 7, 2},
	} {
		l.AddIter(it...)
	}
	return l
}

// TestDeltaStateElementShapes pins the batches that stress which
// elements an update moves, under every operator, each from a fresh
// state and then once more on top of it.
func TestDeltaStateElementShapes(t *testing.T) {
	var pileAll []RefDelta
	for p := int32(0); p < 32; p++ {
		pileAll = append(pileAll, RefDelta{Pos: p, Ref: 7})
	}
	shapes := []struct {
		name  string
		batch []RefDelta
		// orphan, when >= 0, is an element the batch leaves without any
		// reference: it must read the operator's neutral value.
		orphan int
	}{
		{"swap targets in one iteration", []RefDelta{{Pos: 0, Ref: 1}, {Pos: 1, Ref: 0}}, -1},
		{"new ref equals old", []RefDelta{{Pos: 4, Ref: 2}, {Pos: 17, Ref: 2}}, -1},
		{"pile onto one element", []RefDelta{{0, 7}, {1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7}, {7, 7}}, -1},
		{"every reference onto one element", pileAll, 3},
		{"element loses its last reference", []RefDelta{{Pos: 8, Ref: 0}, {Pos: 9, Ref: 0}}, 5},
		{"whole iteration redirected", []RefDelta{{12, 1}, {13, 1}, {14, 2}, {15, 5}}, -1},
		{"runs across an iteration seam", []RefDelta{{13, 4}, {14, 4}, {15, 4}, {16, 4}, {17, 4}, {18, 4}}, -1},
	}
	for _, sh := range shapes {
		for _, op := range deltaOps {
			l := shapeLoop(op)
			mirror := l.Clone()
			dst := make([]float64, l.NumElems)
			st, err := NewDeltaState(l, 4, 2, nil, dst)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%s/%v", sh.name, op)
			applyChecked(t, st, mirror, sh.batch, dst, ctx)
			if sh.orphan >= 0 && math.Float64bits(dst[sh.orphan]) != math.Float64bits(op.Neutral()) {
				t.Fatalf("%s: orphaned element %d reads %g, want neutral %g", ctx, sh.orphan, dst[sh.orphan], op.Neutral())
			}
			// Then a no-op redirect at either end: nothing changes, so the
			// read must not either.
			_, refs := mirror.Flat()
			applyChecked(t, st, mirror, []RefDelta{{Pos: 0, Ref: refs[0]}, {Pos: 31, Ref: refs[31]}}, dst, ctx+" re-read")
		}
	}
}

// TestDeltaStateLongStreamMatchesFreshOpen guards the resident result
// against drift: over a 2000-step stream of small batches every rolling
// read is RunSequential's bits over the mirror, and at the end a session
// opened fresh over the mirror (what a client's re-open gets) reads the
// same.
func TestDeltaStateLongStreamMatchesFreshOpen(t *testing.T) {
	const steps = 2000
	for _, op := range deltaOps {
		rng := rand.New(rand.NewSource(77 + int64(op)))
		l := deltaLoop(96, 700, op, 78)
		mirror := l.Clone()
		dst := make([]float64, l.NumElems)
		st, err := NewDeltaState(l, 0, 4, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= steps; step++ {
			applyChecked(t, st, mirror, randomDeltas(rng, l, 1+rng.Intn(6)), dst, fmt.Sprintf("%v step %d", op, step))
		}
		fresh := make([]float64, l.NumElems)
		if _, err := NewDeltaState(mirror, 0, 4, nil, fresh); err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fresh, dst, fmt.Sprintf("%v after %d steps vs fresh open", op, steps))
	}
}

// TestDeltaStateBulkBatch drives the bulk batches: every reference piled
// onto element 0, then all of them moved on to element 1, each redirect
// out of an element that holds the whole stream.
func TestDeltaStateBulkBatch(t *testing.T) {
	for _, op := range deltaOps {
		l := deltaLoop(50, 300, op, 61)
		mirror := l.Clone()
		dst := make([]float64, l.NumElems)
		st, err := NewDeltaState(l, 16, 3, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		for target := int32(0); target < 2; target++ {
			ds := make([]RefDelta, l.TotalRefs())
			for p := range ds {
				ds[p] = RefDelta{Pos: int32(p), Ref: target}
			}
			applyChecked(t, st, mirror, ds, dst, fmt.Sprintf("%v: all references onto element %d", op, target))
		}
	}
}

// TestDeltaStateRejectsInvalid pins the validation contract: a bad batch
// is rejected before any mutation, so the loop is unchanged and a
// subsequent read returns the previous bits.
func TestDeltaStateRejectsInvalid(t *testing.T) {
	for _, op := range deltaOps {
		l := deltaLoop(30, 60, op, 31)
		mirror := l.Clone()
		dst := make([]float64, 30)
		st, err := NewDeltaState(l, 8, 2, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		applyChecked(t, st, mirror, randomDeltas(rand.New(rand.NewSource(32)), l, 5), dst, fmt.Sprintf("%v valid batch", op))
		before := slices.Clone(dst)
		total := int32(l.TotalRefs())
		bad := [][]RefDelta{
			{{Pos: -1, Ref: 0}},
			{{Pos: total, Ref: 0}},
			{{Pos: 3, Ref: 0}, {Pos: 3, Ref: 1}},         // not strictly increasing
			{{Pos: 5, Ref: 2}, {Pos: 4, Ref: 1}},         // descending
			{{Pos: 0, Ref: 30}},                          // ref out of range
			{{Pos: 0, Ref: -1}},                          //
			{{Pos: 1, Ref: 4}, {Pos: 2, Ref: int32(-7)}}, // valid prefix, bad tail
		}
		for i, ds := range bad {
			if _, err := st.Apply(ds, 2, nil, dst); err == nil {
				t.Fatalf("%v: bad batch %d accepted", op, i)
			}
			if !st.Loop().EqualPattern(mirror) {
				t.Fatalf("%v: bad batch %d mutated the session loop", op, i)
			}
			requireBitEqual(t, before, dst, fmt.Sprintf("%v: destination after bad batch %d", op, i))
		}
		if _, err := st.Apply(nil, 2, nil, dst); err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, before, dst, fmt.Sprintf("%v post-rejection read", op))
		if _, err := st.Apply([]RefDelta{{Pos: 0, Ref: 1}}, 2, nil, make([]float64, 7)); err == nil {
			t.Fatalf("%v: short destination accepted", op)
		}
		if !st.Loop().EqualPattern(mirror) {
			t.Fatalf("%v: a batch with a short destination mutated the session loop", op)
		}
	}
}

// TestDeltaStateZeroIters covers the empty loop: it reduces to the
// neutral array and accepts only empty deltas.
func TestDeltaStateZeroIters(t *testing.T) {
	for _, op := range deltaOps {
		l := trace.NewLoop("empty", 5)
		l.Op = op
		dst := make([]float64, 5)
		st, err := NewDeltaState(l, 0, 2, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, l.RunSequential(), dst, fmt.Sprintf("%v open", op))
		if st.Segments() != 0 {
			t.Fatalf("%v: %d reuse units in an empty loop", op, st.Segments())
		}
		if _, err := st.Apply(nil, 2, nil, dst); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply([]RefDelta{{Pos: 0, Ref: 0}}, 2, nil, dst); err == nil {
			t.Fatal("delta against an empty loop accepted")
		}
	}
	if _, err := NewDeltaState(trace.NewLoop("no elements", 0), 0, 1, nil, nil); err == nil {
		t.Fatal("a loop with no elements opened")
	}
}

// TestDeltaStateExactGuard pins the exact-range guard through a lowered
// bound: an add loop below exactRefs references applies its deltas as
// two updates, one at the bound re-reduces — and both read the oracle.
func TestDeltaStateExactGuard(t *testing.T) {
	defer func(n int) { exactRefs = n }(exactRefs)
	l := deltaLoop(40, 200, trace.OpAdd, 51)
	for _, c := range []struct {
		bound int
		exact bool
	}{{l.TotalRefs() + 1, true}, {l.TotalRefs(), false}, {1 << 26, true}} {
		exactRefs = c.bound
		mirror := l.Clone()
		dst := make([]float64, l.NumElems)
		st, err := NewDeltaState(l, 0, 1, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		if st.exact != c.exact {
			t.Fatalf("%d references under bound %d: exact=%v, want %v", l.TotalRefs(), c.bound, st.exact, c.exact)
		}
		rng := rand.New(rand.NewSource(52))
		for step := 0; step < 20; step++ {
			applyChecked(t, st, mirror, randomDeltas(rng, l, 8), dst, fmt.Sprintf("bound %d step %d", c.bound, step))
		}
	}
	for _, op := range deltaOps[1:] {
		if st, _ := NewDeltaState(deltaLoop(4, 4, op, 1), 0, 1, nil, nil); st.exact {
			t.Fatalf("%v session takes the two-update path", op)
		}
	}
}

// TestDeltaStateBytes holds the admission estimate to the live state's
// own figure and to what the state holds — the loop copy's flat arrays
// (as long as they are; append may round their capacity up) and the
// resident result — and pins the figure at the served session shape.
func TestDeltaStateBytes(t *testing.T) {
	l := deltaLoop(100, 3000, trace.OpAdd, 41)
	st, err := NewDeltaState(l, 0, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Bytes(), DeltaStateBytes(l); got != want {
		t.Fatalf("Bytes %d != DeltaStateBytes %d", got, want)
	}
	offs, refs := st.loop.Flat()
	if held := len(offs)*4 + len(refs)*4 + cap(st.result)*8; st.Bytes() != held {
		t.Fatalf("Bytes %d, but the state holds %d", st.Bytes(), held)
	}
	// 1 024 elements, 16 384 iterations of 8 references: session_remote.
	served := trace.NewLoop("served", 1024)
	for i := 0; i < 16384; i++ {
		served.AddIter(make([]int32, 8)...)
	}
	if got := DeltaStateBytes(served); got != 598020 {
		t.Fatalf("served session shape estimated at %d bytes, want 598020", got)
	}
}

// TestDeltaApplyWarmAllocs pins the steady state under every operator:
// an apply allocates nothing.
func TestDeltaApplyWarmAllocs(t *testing.T) {
	for _, op := range deltaOps {
		l := deltaLoop(100, 3000, op, 41)
		dst := make([]float64, l.NumElems)
		st, err := NewDeltaState(l, 0, 4, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		batch := randomDeltas(rand.New(rand.NewSource(43)), l, 16)
		inverse := slices.Clone(batch)
		_, refs := l.Flat()
		for i := range inverse {
			inverse[i].Ref = refs[inverse[i].Pos]
		}
		round := func() {
			for _, ds := range [][]RefDelta{batch, inverse} {
				if _, err := st.Apply(ds, 4, nil, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Fatalf("%v: an Apply round allocates %.1f times, want 0", op, allocs)
		}
		requireBitEqual(t, l.RunSequential(), dst, fmt.Sprintf("%v after the rounds", op))
	}
}
