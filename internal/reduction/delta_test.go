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

// The delta-path contract is metamorphic: applying a delta stream to a
// DeltaState and reading the rolling result must be bit-for-bit
// (math.Float64bits) identical to mutating a mirror loop the same way
// and reducing it from scratch under the session's segment cut
// (cutOrder over segCuts, the naive.go kernels). The tests below pin that
// across random loops, ops, segment widths, the batch shapes (straddling
// segment boundaries, empty, full-touch) and the element shapes the
// indexed re-accumulation must get right (swapped targets, no-op
// redirects, pile-ups on one element up to and past its list's headroom,
// orphaned elements, several deltas in one iteration), and over a long
// stream against a fresh open. Beside the bits, the reference index
// itself is held to a fresh counting sort of the loop after every batch,
// accepted or rejected.

var deltaOps = []trace.Op{trace.OpAdd, trace.OpMul, trace.OpMax, trace.OpMin}

// deltaLoop builds a loop with variable-length (including empty)
// iterations so delta positions land on ragged segment boundaries.
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

// freshIndex is the reference index built from scratch: one pass over
// the loop's current references, each position appended to its
// element's list, so every list is strictly ascending by construction.
func freshIndex(l *trace.Loop) [][]int32 {
	_, refs := l.Flat()
	idx := make([][]int32, l.NumElems)
	for pos, r := range refs {
		idx[r] = append(idx[r], int32(pos))
	}
	return idx
}

// requireIndexCurrent holds the state's reference index to the loop it
// indexes: every list strictly ascending, equal to a fresh counting
// sort's, lengths summing to TotalRefs.
func requireIndexCurrent(t *testing.T, st *DeltaState, ctx string) {
	t.Helper()
	want := freshIndex(st.loop)
	total := 0
	for e, list := range st.byElem {
		for i := 1; i < len(list); i++ {
			if list[i-1] >= list[i] {
				t.Fatalf("%s: element %d's positions not strictly ascending: %v", ctx, e, list)
			}
		}
		if !slices.Equal(list, want[e]) {
			t.Fatalf("%s: element %d indexed at %v, referenced at %v", ctx, e, list, want[e])
		}
		total += len(list)
	}
	if total != st.loop.TotalRefs() {
		t.Fatalf("%s: index holds %d positions, loop has %d references", ctx, total, st.loop.TotalRefs())
	}
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

// TestDeltaStateMatchesOracle is the core property test: random loops,
// random delta streams, every op, multiple widths and proc counts —
// every read must be bit-identical to the naive from-scratch rebuild.
func TestDeltaStateMatchesOracle(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		op := deltaOps[trial%len(deltaOps)]
		elems := 1 + rng.Intn(200)
		iters := rng.Intn(400)
		procs := 1 + rng.Intn(4)
		segIters := 1 + rng.Intn(64)
		if segs := (iters + segIters - 1) / segIters; segs > maxSegments {
			segIters = (iters + maxSegments - 1) / maxSegments
		}
		l := deltaLoop(elems, iters, op, int64(900+trial))
		mirror := l.Clone()

		dst := make([]float64, elems)
		st, err := NewDeltaState(l, segIters, procs, nil, dst)
		if err != nil {
			t.Fatalf("trial %d: NewDeltaState: %v", trial, err)
		}
		want := cutOrder(mirror, segCuts(mirror, st.SegIters()))
		requireBitEqual(t, want, dst, "open read")

		for step := 0; step < 6; step++ {
			ds := randomDeltas(rng, l, rng.Intn(12))
			if _, err := st.Apply(ds, procs, nil, dst); err != nil {
				t.Fatalf("trial %d step %d: Apply: %v", trial, step, err)
			}
			applyMirror(mirror, ds)
			want = cutOrder(mirror, segCuts(mirror, st.SegIters()))
			requireBitEqual(t, want, dst, "delta read")
		}
	}
}

// TestDeltaStateStraddlesSegments forces every batch to touch the last
// reference of one segment and the first of the next, so recomputation
// must rebuild on both sides of each boundary it straddles.
func TestDeltaStateStraddlesSegments(t *testing.T) {
	const elems, iters, segIters, procs = 64, 120, 16, 2
	l := trace.NewLoop("straddle", elems)
	l.Op = trace.OpAdd
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < iters; i++ {
		l.AddIter(int32(rng.Intn(elems)), int32(rng.Intn(elems)))
	}
	mirror := l.Clone()
	dst := make([]float64, elems)
	st, err := NewDeltaState(l, segIters, procs, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	offs, _ := l.Flat()
	for seg := 1; seg < st.Segments(); seg++ {
		boundary := offs[seg*segIters] // first ref of segment seg
		ds := []RefDelta{
			{Pos: boundary - 1, Ref: int32(rng.Intn(elems))},
			{Pos: boundary, Ref: int32(rng.Intn(elems))},
		}
		stats, err := st.Apply(ds, procs, nil, dst)
		if err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		if stats.Computed != 2 || stats.Reused != st.Segments()-2 {
			t.Fatalf("segment %d: computed %d reused %d, want exactly the two straddled segments fresh",
				seg, stats.Computed, stats.Reused)
		}
		applyMirror(mirror, ds)
		want := cutOrder(mirror, segCuts(mirror, segIters))
		requireBitEqual(t, want, dst, "straddle read")
	}
}

// TestDeltaStateEmptyBatch pins the empty-delta shape: nothing is
// recomputed, every segment is reused, and the read still matches the
// oracle exactly.
func TestDeltaStateEmptyBatch(t *testing.T) {
	l := deltaLoop(50, 90, trace.OpMax, 11)
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
		if stats.Computed != 0 || stats.Reused != st.Segments() {
			t.Fatalf("empty batch: computed %d reused %d, want 0/%d", stats.Computed, stats.Reused, st.Segments())
		}
		want := cutOrder(l, segCuts(l, st.SegIters()))
		requireBitEqual(t, want, dst, "empty-batch read")
	}
}

// TestDeltaStateFullTouch pins the degenerate full-recompute shape: a
// batch updating one reference in every segment recomputes all of them,
// and updating every reference is still exact.
func TestDeltaStateFullTouch(t *testing.T) {
	const elems, iters, segIters, procs = 40, 96, 12, 3
	l := trace.NewLoop("fulltouch", elems)
	l.Op = trace.OpAdd
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < iters; i++ {
		l.AddIter(int32(rng.Intn(elems)), int32(rng.Intn(elems)), int32(rng.Intn(elems)))
	}
	mirror := l.Clone()
	dst := make([]float64, elems)
	st, err := NewDeltaState(l, segIters, procs, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	offs, _ := l.Flat()

	// One touch per segment: all segments recompute, none reused.
	var ds []RefDelta
	for seg := 0; seg < st.Segments(); seg++ {
		ds = append(ds, RefDelta{Pos: offs[seg*segIters], Ref: int32(rng.Intn(elems))})
	}
	stats, err := st.Apply(ds, procs, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != st.Segments() || stats.Reused != 0 {
		t.Fatalf("full touch: computed %d reused %d, want %d/0", stats.Computed, stats.Reused, st.Segments())
	}
	applyMirror(mirror, ds)
	want := cutOrder(mirror, segCuts(mirror, segIters))
	requireBitEqual(t, want, dst, "one-per-segment read")

	// Every reference at once: the fully-degenerate batch.
	total := l.TotalRefs()
	ds = ds[:0]
	for p := 0; p < total; p++ {
		ds = append(ds, RefDelta{Pos: int32(p), Ref: int32(rng.Intn(elems))})
	}
	if _, err := st.Apply(ds, procs, nil, dst); err != nil {
		t.Fatal(err)
	}
	applyMirror(mirror, ds)
	want = cutOrder(mirror, segCuts(mirror, segIters))
	requireBitEqual(t, want, dst, "all-refs read")
}

// shapeLoop is a hand-built loop for the element-shape tests: 8
// iterations of 4 references over 8 elements (the reference at flat
// position p sits in iteration p/4), cut into two 4-iteration segments.
// Element 5 is referenced only by iteration 2.
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

// TestDeltaStateElementShapes pins the batches that stress the
// per-element bookkeeping — which elements are reset, re-accumulated and
// re-folded — under every operator, each from a fresh state and then
// once more on top of it, so stale marks from a first batch would show
// in the second read.
func TestDeltaStateElementShapes(t *testing.T) {
	// Every reference onto element 7: 28 arrivals against a list opened
	// with 4 positions and indexHeadroom = 9 spare slots, so the list must
	// regrow mid-batch — and every other element is orphaned.
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
		{"swap targets in one segment", []RefDelta{{Pos: 0, Ref: 1}, {Pos: 1, Ref: 0}}, -1},
		{"new ref equals old", []RefDelta{{Pos: 4, Ref: 2}, {Pos: 17, Ref: 2}}, -1},
		{"pile onto one element", []RefDelta{{0, 7}, {1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7}, {7, 7}}, -1},
		{"pile past the list's headroom", pileAll, 3},
		{"element loses its last reference", []RefDelta{{Pos: 8, Ref: 0}, {Pos: 9, Ref: 0}}, 5},
		{"whole iteration redirected", []RefDelta{{12, 1}, {13, 1}, {14, 2}, {15, 5}}, -1},
		{"one iteration across the segment seam", []RefDelta{{13, 4}, {14, 4}, {15, 4}, {16, 4}, {17, 4}, {18, 4}}, -1},
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
			fresh := make([]float64, l.NumElems)
			share := cap(st.byElem[7])
			read := func(ds []RefDelta, ctx string) {
				ctx = fmt.Sprintf("%s/%v %s", sh.name, op, ctx)
				if _, err := st.Apply(ds, 2, nil, dst); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				applyMirror(mirror, ds)
				want := cutOrder(mirror, segCuts(mirror, 4))
				requireBitEqual(t, want, dst, ctx)
				requireIndexCurrent(t, st, ctx)
				if _, err := NewDeltaState(mirror, 4, 2, nil, fresh); err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, fresh, dst, ctx+" vs fresh open")
				if sh.orphan >= 0 && (len(st.byElem[sh.orphan]) != 0 || math.Float64bits(dst[sh.orphan]) != math.Float64bits(op.Neutral())) {
					t.Fatalf("%s: orphaned element %d keeps positions %v and reads %g, want none and neutral %g",
						ctx, sh.orphan, st.byElem[sh.orphan], dst[sh.orphan], op.Neutral())
				}
			}
			read(sh.batch, "read")
			if len(sh.batch) == len(pileAll) && cap(st.byElem[7]) <= share {
				t.Fatalf("%s/%v: 32 positions in a list of capacity %d: the pile-up did not regrow it", sh.name, op, share)
			}
			// Then a no-op redirect in each segment: nothing changes, so the
			// read must not either.
			_, refs := mirror.Flat()
			read([]RefDelta{{Pos: 0, Ref: refs[0]}, {Pos: 31, Ref: refs[31]}}, "re-read")
		}
	}
}

// TestDeltaStateLongStreamMatchesFreshOpen guards the resident result
// against drift: over a 2000-step stream of small batches every rolling
// read must be bit-identical both to the oracle and to a session opened
// fresh over the mirror at that step (what a DeltaStream's MirrorAt(step)
// rebuilds) — under the session's own default width, the served one.
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
		if st.Segments() < 2 {
			t.Fatalf("default geometry cut %d segments; the stream needs several", st.Segments())
		}
		fresh := make([]float64, l.NumElems)
		for step := 1; step <= steps; step++ {
			ds := randomDeltas(rng, l, 1+rng.Intn(6))
			if _, err := st.Apply(ds, 4, nil, dst); err != nil {
				t.Fatalf("%v step %d: %v", op, step, err)
			}
			applyMirror(mirror, ds)
			want := cutOrder(mirror, segCuts(mirror, st.SegIters()))
			requireBitEqual(t, want, dst, fmt.Sprintf("%v step %d vs oracle", op, step))
			requireIndexCurrent(t, st, fmt.Sprintf("%v step %d", op, step))
			if _, err := NewDeltaState(mirror, 0, 4, nil, fresh); err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, fresh, dst, fmt.Sprintf("%v step %d vs fresh open", op, step))
		}
	}
}

// TestDeltaStateBulkBatchReopens drives the batch that tracking would
// serve in quadratic time: every reference piled onto element 0, then
// all of them moved on to element 1 — each redirect out of a list that
// holds the whole stream. The second batch is past reopenAt, so the
// state re-opens in place (seen in the list's capacity: a fresh share,
// not append's growth), and must read what the oracle and the index
// invariant say, with every segment counted as landed in.
func TestDeltaStateBulkBatchReopens(t *testing.T) {
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
			stats, err := st.Apply(ds, 3, nil, dst)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%v: all references onto element %d", op, target)
			applyMirror(mirror, ds)
			want := cutOrder(mirror, segCuts(mirror, 16))
			requireBitEqual(t, want, dst, ctx)
			requireIndexCurrent(t, st, ctx)
			// deltaLoop leaves some iterations empty, but no 16 in a row.
			if stats.Computed != st.Segments() || stats.Reused != 0 {
				t.Fatalf("%s: computed %d reused %d, want %d/0", ctx, stats.Computed, stats.Reused, st.Segments())
			}
			fresh := len(st.byElem[target])+indexHeadroom(l) == cap(st.byElem[target])
			if reopened := target == 1; fresh != reopened {
				t.Fatalf("%s: list capacity %d for %d positions: re-opened=%v, want %v",
					ctx, cap(st.byElem[target]), len(st.byElem[target]), fresh, reopened)
			}
		}
	}
}

// TestDeltaStateRejectsInvalid pins the validation contract: a bad batch
// is rejected before any mutation, so a subsequent valid read is
// unchanged.
func TestDeltaStateRejectsInvalid(t *testing.T) {
	l := deltaLoop(30, 60, trace.OpAdd, 31)
	dst := make([]float64, 30)
	st, err := NewDeltaState(l, 8, 2, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, 30)
	copy(before, dst)
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
			t.Fatalf("bad batch %d accepted", i)
		}
		requireIndexCurrent(t, st, fmt.Sprintf("after bad batch %d", i))
	}
	// State must be untouched: an empty apply reads the original sum.
	if _, err := st.Apply(nil, 2, nil, dst); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, before, dst, "post-rejection read")

	if _, err := st.Apply(nil, 2, nil, make([]float64, 7)); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestDeltaStateZeroIters covers the no-segment edge: a loop with no
// iterations reduces to the neutral array and accepts only empty deltas.
func TestDeltaStateZeroIters(t *testing.T) {
	for _, op := range deltaOps {
		l := trace.NewLoop("empty", 5)
		l.Op = op
		dst := make([]float64, 5)
		st, err := NewDeltaState(l, 0, 2, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if math.Float64bits(v) != math.Float64bits(op.Neutral()) {
				t.Fatalf("op %v elem %d: %g, want neutral %g", op, i, v, op.Neutral())
			}
		}
		if _, err := st.Apply(nil, 2, nil, dst); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply([]RefDelta{{Pos: 0, Ref: 0}}, 2, nil, dst); err == nil {
			t.Fatal("delta against an empty loop accepted")
		}
	}
}

// TestDeltaStateBytes holds the admission accounting estimate to the
// live state's own figure, and both to what the state actually
// allocates: the element-major partials, the resident result, the
// element marks, the loop copy and the reference index — every list's
// capacity (its positions plus headroom, together the one backing array)
// and its 24-byte header.
func TestDeltaStateBytes(t *testing.T) {
	l := deltaLoop(100, 3000, trace.OpAdd, 41)
	st, err := NewDeltaState(l, 0, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Bytes(), DeltaStateBytes(l, 0, 4); got != want {
		t.Fatalf("Bytes %d != DeltaStateBytes %d", got, want)
	}
	held := cap(st.cols)*8 + cap(st.result)*8 + cap(st.marks) + cap(st.rebuild)*4 + cap(st.refold)*4 +
		l.TotalRefs()*4 + (l.NumIters()+1)*4 + cap(st.byElem)*24
	for _, list := range st.byElem {
		held += cap(list) * 4
	}
	if st.Bytes() != held {
		t.Fatalf("Bytes %d, but the state holds %d", st.Bytes(), held)
	}
}

// TestDeltaApplyWarmAllocs pins the steady state: once every list a
// stream grows has its capacity, an apply allocates nothing. The stream
// is a batch and its inverse, so the warm-up round sees every length the
// timed rounds reach.
func TestDeltaApplyWarmAllocs(t *testing.T) {
	l := deltaLoop(100, 3000, trace.OpAdd, 41)
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
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a warm Apply round allocates %.1f times, want 0", allocs)
	}
	requireIndexCurrent(t, st, "after the warm rounds")
}

// TestSessionSegIters pins the session width rule: as many segments as
// fit the loop copy's own footprint, at most maxSegments, at
// least 32 iterations each, never fewer than the batch default cuts.
func TestSessionSegIters(t *testing.T) {
	mk := func(elems, iters, refsPerIter int) *trace.Loop {
		l := trace.NewLoop("geom", elems)
		refs := make([]int32, refsPerIter)
		for i := 0; i < iters; i++ {
			l.AddIter(refs...)
		}
		return l
	}
	cases := []struct {
		name                      string
		elems, iters, refsPerIter int
		wantSegs                  int
	}{
		{"served session shape", 1024, 16384, 8, 64},        // 590 KB of loop / 8 KB a buffer, capped at 64
		{"memory-bound", 4096, 16384, 8, 18},                // 590 KB / 32 KB
		{"sparse: batch default holds", 120000, 4096, 2, 8}, // one buffer outweighs the loop
		{"short loop: 32-iteration floor", 16, 200, 8, 7},
		{"no iterations", 16, 0, 0, 0},
	}
	for _, c := range cases {
		l := mk(c.elems, c.iters, c.refsPerIter)
		w := sessionSegIters(l, 8)
		segs := (c.iters + w - 1) / w
		if segs != c.wantSegs {
			t.Errorf("%s: width %d cuts %d segments, want %d", c.name, w, segs, c.wantSegs)
		}
		if def := DefaultSegIters(c.iters, 8); w > def {
			t.Errorf("%s: width %d wider than the batch default %d", c.name, w, def)
		}
		if w < 32 || segs > maxSegments {
			t.Errorf("%s: width %d / %d segments breaks the floor or maxSegments", c.name, w, segs)
		}
	}
}
