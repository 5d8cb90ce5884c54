package reduction

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pattern"
	"repro/internal/trace"
)

// planLoop builds a deterministic random loop for the plan tests.
func planLoop(name string, dim, iters, refsPerIter int, seed int64) *trace.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop(name, dim)
	refs := make([]int32, refsPerIter)
	for i := 0; i < iters; i++ {
		for j := range refs {
			refs[j] = int32(rng.Intn(dim))
		}
		l.AddIter(refs...)
	}
	return l
}

// mutateSegments returns a copy of l whose reference content is
// re-randomized on exactly the segments for which keep(s) is false; the
// kept segments alias-equal content at the same positions.
func mutateSegments(l *trace.Loop, segIters int, seed int64, keep func(s int) bool) *trace.Loop {
	c := l.Clone()
	offs, refs := c.Flat()
	iters := c.NumIters()
	segs := (iters + segIters - 1) / segIters
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < segs; s++ {
		if keep(s) {
			continue
		}
		itHi := (s + 1) * segIters
		if itHi > iters {
			itHi = iters
		}
		for r := offs[s*segIters]; r < offs[itHi]; r++ {
			refs[r] = int32(rng.Intn(c.NumElems))
		}
	}
	return c
}

// planShapes are the overlap structures of the property test. Each
// builds occ members over a common leader; segIters is 16 iterations
// over 128, i.e. 8 segments.
var planShapes = []struct {
	name  string
	build func(lead *trace.Loop, occ, segIters int) []*trace.Loop
}{
	{"full-overlap", func(lead *trace.Loop, occ, segIters int) []*trace.Loop {
		ms := []*trace.Loop{lead}
		for m := 1; m < occ; m++ {
			ms = append(ms, lead.Clone())
		}
		return ms
	}},
	{"disjoint", func(lead *trace.Loop, occ, segIters int) []*trace.Loop {
		ms := []*trace.Loop{lead}
		for m := 1; m < occ; m++ {
			ms = append(ms, mutateSegments(lead, segIters, int64(100+m), func(int) bool { return false }))
		}
		return ms
	}},
	{"staircase", func(lead *trace.Loop, occ, segIters int) []*trace.Loop {
		// Member m keeps the leading 8-m segments.
		ms := []*trace.Loop{lead}
		for m := 1; m < occ; m++ {
			keepUpTo := 8 - m
			ms = append(ms, mutateSegments(lead, segIters, int64(200+m), func(s int) bool { return s < keepUpTo }))
		}
		return ms
	}},
	{"nested", func(lead *trace.Loop, occ, segIters int) []*trace.Loop {
		// Member m keeps the nested window [m/2, 8-(m+1)/2).
		ms := []*trace.Loop{lead}
		for m := 1; m < occ; m++ {
			lo, hi := m/2, 8-(m+1)/2
			ms = append(ms, mutateSegments(lead, segIters, int64(300+m), func(s int) bool { return s >= lo && s < hi }))
		}
		return ms
	}},
}

// TestSegPlanMatchesNaiveOracle is the simplification correctness
// property: across overlap shapes and batch occupancies 1-8, the fast
// simplified execution (shared partial sums, pooled buffers, unrolled
// kernels, a merge block that does not divide the processors' ranges)
// produces bit-for-bit the result of running each member's own segment
// cut through the scalar naive path — sharing never changes a single bit.
func TestSegPlanMatchesNaiveOracle(t *testing.T) {
	const dim, iters, rpi, segIters = 192, 128, 4, 16
	pool := NewBufferPool()
	for _, shape := range planShapes {
		for occ := 1; occ <= 8; occ++ {
			t.Run(fmt.Sprintf("%s/occ%d", shape.name, occ), func(t *testing.T) {
				lead := planLoop("lead", dim, iters, rpi, 1)
				members := shape.build(lead, occ, segIters)
				p, err := BuildSegPlan(members, segIters)
				if err != nil {
					t.Fatal(err)
				}
				dsts := make([][]float64, len(members))
				for m := range dsts {
					dsts[m] = make([]float64, dim)
				}
				for _, procs := range []int{1, 3, 8} {
					st := p.Run(procs, &Exec{Pool: pool, MergeBlockElems: 40}, nil, dsts)
					if st.Computed != p.Analysis.Unique || st.Reused != 0 {
						t.Fatalf("procs=%d computed/reused = %d/%d, want %d/0",
							procs, st.Computed, st.Reused, p.Analysis.Unique)
					}
					for m, l := range members {
						want := cutOrder(l, segCuts(l, segIters))
						for e := range want {
							if math.Float64bits(dsts[m][e]) != math.Float64bits(want[e]) {
								t.Fatalf("procs=%d member %d elem %d = %v, oracle %v",
									procs, m, e, dsts[m][e], want[e])
							}
						}
					}
				}
			})
		}
	}
}

// TestSegPlanNoOverlapHasNoSharing pins the disjoint case the decision
// boundary falls back on: with fully distinct content every cell is its
// own owner, so a simplified execution would do strictly more work than
// the direct path — the planner reports that via the analysis, and
// adapt.RecommendSimplify (tested in its own package) refuses it.
func TestSegPlanNoOverlapHasNoSharing(t *testing.T) {
	const segIters = 16
	lead := planLoop("lead", 192, 128, 4, 1)
	members := planShapes[1].build(lead, 4, segIters) // disjoint
	p, err := BuildSegPlan(members, segIters)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Analysis
	if a.SharedSegs != 0 || a.OverlapFrac != 0 {
		t.Fatalf("disjoint batch reports sharing: SharedSegs=%d OverlapFrac=%g", a.SharedSegs, a.OverlapFrac)
	}
	if a.Unique != a.Members*a.Segments {
		t.Fatalf("disjoint unique = %d, want %d", a.Unique, a.Members*a.Segments)
	}
}

// TestSegPlanCacheIncremental checks incremental re-reduction: a second
// batch whose stream mutated a single segment recomputes only that
// segment, reuses the rest from the cache, and still matches the naive
// oracle bit-for-bit.
func TestSegPlanCacheIncremental(t *testing.T) {
	const dim, iters, rpi, segIters = 192, 128, 4, 16
	pool := NewBufferPool()
	lead := planLoop("lead", dim, iters, rpi, 1)
	cache := NewSegCache(lead, segIters)

	p0, err := BuildSegPlan([]*trace.Loop{lead}, segIters)
	if err != nil {
		t.Fatal(err)
	}
	dst := [][]float64{make([]float64, dim)}
	st := p0.Run(4, &Exec{Pool: pool}, cache, dst)
	if st.Computed != p0.Analysis.Segments || st.Reused != 0 {
		t.Fatalf("cold run computed/reused = %d/%d, want %d/0", st.Computed, st.Reused, p0.Analysis.Segments)
	}

	// Mutate only segment 3; everything else must come from the cache.
	drift := mutateSegments(lead, segIters, 99, func(s int) bool { return s != 3 })
	p1, err := BuildSegPlan([]*trace.Loop{drift}, segIters)
	if err != nil {
		t.Fatal(err)
	}
	st = p1.Run(4, &Exec{Pool: pool}, cache, dst)
	if st.Computed != 1 || st.Reused != p1.Analysis.Segments-1 {
		t.Fatalf("incremental run computed/reused = %d/%d, want 1/%d", st.Computed, st.Reused, p1.Analysis.Segments-1)
	}
	want := cutOrder(drift, segCuts(drift, segIters))
	for e := range want {
		if math.Float64bits(dst[0][e]) != math.Float64bits(want[e]) {
			t.Fatalf("incremental elem %d = %v, oracle %v", e, dst[0][e], want[e])
		}
	}

	// A third run with identical content reuses everything.
	st = p1.Run(4, &Exec{Pool: pool}, cache, dst)
	if st.Computed != 0 || st.Reused != p1.Analysis.Segments {
		t.Fatalf("warm run computed/reused = %d/%d, want 0/%d", st.Computed, st.Reused, p1.Analysis.Segments)
	}

	// A mismatched-geometry cache is ignored, not misused.
	other := planLoop("other", dim, iters/2, rpi, 7)
	pOther, err := BuildSegPlan([]*trace.Loop{other}, segIters)
	if err != nil {
		t.Fatal(err)
	}
	dstO := [][]float64{make([]float64, dim)}
	st = pOther.Run(4, &Exec{Pool: pool}, cache, dstO)
	if st.Reused != 0 {
		t.Fatalf("mismatched cache served %d segments", st.Reused)
	}
	wantO := cutOrder(other, segCuts(other, segIters))
	for e := range wantO {
		if math.Float64bits(dstO[0][e]) != math.Float64bits(wantO[e]) {
			t.Fatalf("mismatched-cache elem %d = %v, oracle %v", e, dstO[0][e], wantO[e])
		}
	}
}

// TestSegPlanNonAddOp runs the naive-kernel path end to end for an
// idempotent operator, where exact equality with the sequential
// reference holds regardless of association.
func TestSegPlanNonAddOp(t *testing.T) {
	const segIters = 16
	lead := planLoop("max", 128, 96, 3, 5)
	lead.Op = trace.OpMax
	members := []*trace.Loop{lead, lead.Clone()}
	p, err := BuildSegPlan(members, segIters)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Analysis.Idempotent {
		t.Error("OpMax plan not flagged idempotent")
	}
	dsts := [][]float64{make([]float64, 128), make([]float64, 128)}
	p.Run(4, nil, nil, dsts)
	want := lead.RunSequential()
	for m := range dsts {
		for e := range want {
			if math.Float64bits(dsts[m][e]) != math.Float64bits(want[e]) {
				t.Fatalf("member %d elem %d = %v, want %v", m, e, dsts[m][e], want[e])
			}
		}
	}
}

// TestSegmentCutMatchesProcessorCut holds the numerical contract's one
// rule from its parameter side: every path folds pieces of the iteration
// space in order and differs only in where it cuts. Where the segment cut
// is the processor cut (NumIters divisible by procs, segIters =
// NumIters/procs) a SegPlan returns Rep's bits, under every
// operator; with one segment a SegPlan returns RunSequential's, the cut
// lw answers with.
func TestSegmentCutMatchesProcessorCut(t *testing.T) {
	const elems, iters = 1024, 480 // 480 divides by 2, 3, 4 and 8
	ex := &Exec{Pool: NewBufferPool()}
	for _, op := range deltaOps {
		for _, l := range []*trace.Loop{randomLoop(elems, iters, 4, 1), clusteredLoop(elems, iters, 2)} {
			l.Op = op
			for _, procs := range []int{2, 3, 4, 8} {
				segIters := iters / procs
				if pc, sc := procCuts(l, procs), segCuts(l, segIters); !slices.Equal(pc, sc) {
					t.Fatalf("procs=%d: processor cut %v, segment cut %v", procs, pc, sc)
				}
				want := Rep{}.Run(l, procs)
				ctx := fmt.Sprintf("%s/%v procs=%d", l.Name, op, procs)
				got, _ := runPlan(t, []*trace.Loop{l}, segIters, procs, ex, nil)
				assertBits(t, ctx+" SegPlan vs rep", got[0], want)
			}
			got, _ := runPlan(t, []*trace.Loop{l}, iters, 4, ex, nil)
			assertBits(t, fmt.Sprintf("%s/%v one segment vs RunSequential", l.Name, op), got[0], l.RunSequential())
		}
	}
}

func TestDefaultSegIters(t *testing.T) {
	cases := []struct {
		iters, procs int
		wantSegs     int
	}{
		{8192, 8, 8},
		{8192, 16, 16},
		{8192, 1, 8},
		{100, 8, 4}, // 32-iteration floor wins: ceil(100/32)
	}
	for _, c := range cases {
		si := DefaultSegIters(c.iters, c.procs)
		segs := (c.iters + si - 1) / si
		if segs != c.wantSegs {
			t.Errorf("DefaultSegIters(%d,%d) = %d → %d segments, want %d",
				c.iters, c.procs, si, segs, c.wantSegs)
		}
		if segs > maxSegments {
			t.Errorf("DefaultSegIters(%d,%d) cuts more than maxSegments", c.iters, c.procs)
		}
	}
}

// runPlan builds a fresh plan over members and runs it against cache
// (nil for a cold run), returning one destination per member.
func runPlan(t *testing.T, members []*trace.Loop, segIters, procs int, ex *Exec, cache *SegCache) ([][]float64, SegRunStats) {
	t.Helper()
	p, err := BuildSegPlan(members, segIters)
	if err != nil {
		t.Fatal(err)
	}
	dsts := make([][]float64, len(members))
	for m := range dsts {
		dsts[m] = make([]float64, members[0].NumElems)
	}
	st := p.Run(procs, ex, cache, dsts)
	return dsts, st
}

// assertBits fails unless got and want agree in every bit.
func assertBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("%s: elem %d = %v, want %v", what, e, got[e], want[e])
		}
	}
}

// mutateOffSample returns a copy of l whose subscripts are re-randomized
// everywhere except at the positions the sampled segment hash reads, so
// every segment keeps its hash while its content differs — the collision
// only the full SameRefs comparison can tell apart.
func mutateOffSample(t *testing.T, l *trace.Loop, segIters int, seed int64) *trace.Loop {
	t.Helper()
	c := l.Clone()
	offs, refs := c.Flat()
	_, orig := l.Flat()
	rng := rand.New(rand.NewSource(seed))
	iters := c.NumIters()
	for lo := 0; lo < iters; lo += segIters {
		rLo, rHi := int(offs[lo]), int(offs[min(lo+segIters, iters)])
		seg := refs[rLo:rHi]
		stride := len(seg) / 64 // pattern's segHashSamples
		if stride < 2 {
			t.Fatalf("segment of %d references leaves no unsampled position", len(seg))
		}
		for i := range seg {
			if i%stride != 0 {
				seg[i] = int32(rng.Intn(c.NumElems))
			}
		}
		if pattern.HashRefs(seg) != pattern.HashRefs(orig[rLo:rHi]) {
			t.Fatal("off-sample mutation moved a segment hash")
		}
		if pattern.SameRefs(seg, orig[rLo:rHi]) {
			t.Fatal("off-sample mutation left a segment unchanged")
		}
	}
	return c
}

// TestSegCacheResidentMatchesColdAndOracle is the resident result's
// correctness property: a batch run three times against one cache (seed
// the slots, arm the total, serve the copy) answers every member, every
// time, bit-for-bit like a plan run with no cache and like the
// segment-cut oracle — across overlap shapes, processor counts
// and both kernel families. The sentinel planted in the total proves the
// split the third run takes: the fully cached leader is a copy of the
// total, joiners with private parts still fold.
func TestSegCacheResidentMatchesColdAndOracle(t *testing.T) {
	const dim, iters, rpi, segIters = 192, 128, 4, 16
	pool := NewBufferPool()
	for _, shape := range planShapes {
		for _, procs := range []int{1, 2, 4, 8} {
			for _, naive := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p%d/naive=%v", shape.name, procs, naive), func(t *testing.T) {
					lead := planLoop("lead", dim, iters, rpi, 1)
					members := shape.build(lead, 4, segIters)
					ex := &Exec{Pool: pool, naive: naive}
					cold, _ := runPlan(t, members, segIters, procs, ex, nil)
					cache := NewSegCache(lead, segIters)
					for run := 0; run < 3; run++ {
						if armed := run == 2; cache.totalOK != armed {
							t.Fatalf("before run %d totalOK = %v, want %v", run, cache.totalOK, armed)
						}
						got, _ := runPlan(t, members, segIters, procs, ex, cache)
						for m, l := range members {
							what := fmt.Sprintf("run %d member %d", run, m)
							assertBits(t, what+" vs cold", got[m], cold[m])
							assertBits(t, what+" vs oracle", got[m], cutOrder(l, segCuts(l, segIters)))
						}
					}

					const sentinel = -12345.5
					cache.total[7] = sentinel
					got, _ := runPlan(t, members, segIters, procs, ex, cache)
					if got[0][7] != sentinel {
						t.Fatalf("fully cached leader was folded (elem 7 = %v), want the copy of total", got[0][7])
					}
					// Clones of the leader share its every task and are
					// served with it; every other shape's joiners hold
					// private parts and must fold.
					for m := 1; m < len(members); m++ {
						if copied := got[m][7] == sentinel; copied != (shape.name == "full-overlap") {
							t.Fatalf("member %d copied from the resident total = %v", m, copied)
						} else if !copied {
							assertBits(t, fmt.Sprintf("joiner %d beside a copied leader", m), got[m], cold[m])
						}
					}
				})
			}
		}
	}
}

// TestSegCacheResidentInvalidation walks the total through a slot
// refresh: A armed, then B (A with one window moved) must get B's answer
// and leave both the slot and the total moved — the next B must not be
// served A's total — and A coming back must get A's answer, never B's.
func TestSegCacheResidentInvalidation(t *testing.T) {
	const dim, iters, rpi, segIters = 192, 128, 4, 16
	a := planLoop("a", dim, iters, rpi, 1)
	b := mutateSegments(a, segIters, 99, func(s int) bool { return s != 3 })
	wantA, wantB := cutOrder(a, segCuts(a, segIters)), cutOrder(b, segCuts(b, segIters))
	ex := &Exec{Pool: NewBufferPool()}
	cache := NewSegCache(a, segIters)
	run := func(l *trace.Loop, want []float64, computed int, armedAfter bool) {
		t.Helper()
		got, st := runPlan(t, []*trace.Loop{l}, segIters, 4, ex, cache)
		assertBits(t, l.Name, got[0], want)
		if st.Computed != computed {
			t.Fatalf("%s: computed %d segments, want %d", l.Name, st.Computed, computed)
		}
		if cache.totalOK != armedAfter {
			t.Fatalf("%s: totalOK = %v after the run, want %v", l.Name, cache.totalOK, armedAfter)
		}
		dst := make([]float64, dim)
		if served := cache.Serve(l, dst); served != armedAfter {
			t.Fatalf("%s: Serve = %v, want %v", l.Name, served, armedAfter)
		} else if served {
			assertBits(t, l.Name+" served", dst, want)
		}
	}
	run(a, wantA, 8, false) // seeds the slots
	run(a, wantA, 0, true)  // every part served: arms the total
	run(a, wantA, 0, true)  // the copy
	if cache.Serve(b, make([]float64, dim)) {
		t.Fatal("B served from A's total")
	}
	_, bRefs := b.Flat()
	run(b, wantB, 1, false) // slot 3 refreshed: total dropped, not re-armed
	if got := cache.slots[3].refs; &got[0] != &bRefs[3*segIters*rpi] {
		t.Fatal("slot 3 does not hold B's window after B ran")
	}
	run(b, wantB, 0, true)
	run(b, wantB, 0, true)
	if cache.Serve(a, make([]float64, dim)) {
		t.Fatal("A served from B's total")
	}
	run(a, wantA, 1, false)
	run(a, wantA, 0, true)
}

// TestSegCacheResidentSameHashDifferentContent alternates two loops whose
// every segment hashes alike but differs in content (the shape of
// distinct same-fingerprint objects on one engine entry): neither may
// ever read a sum or a total the other left behind, through Run or Serve.
func TestSegCacheResidentSameHashDifferentContent(t *testing.T) {
	const dim, iters, rpi, segIters = 192, 128, 16, 16
	a := planLoop("a", dim, iters, rpi, 1)
	b := mutateOffSample(t, a, segIters, 7)
	want := map[*trace.Loop][]float64{a: cutOrder(a, segCuts(a, segIters)), b: cutOrder(b, segCuts(b, segIters))}
	ex := &Exec{Pool: NewBufferPool()}
	cache := NewSegCache(a, segIters)
	dst := make([]float64, dim)
	for round := 0; round < 3; round++ {
		for _, l := range []*trace.Loop{a, a, a, b, b, b} {
			other := a
			if l == a {
				other = b
			}
			got, _ := runPlan(t, []*trace.Loop{l}, segIters, 2, ex, cache)
			assertBits(t, l.Name, got[0], want[l])
			if cache.Serve(other, dst) {
				t.Fatalf("round %d: %s's cache served the other loop", round, l.Name)
			}
		}
		if !cache.Serve(b, dst) {
			t.Fatalf("round %d: armed cache declined its own loop", round)
		}
		assertBits(t, "served b", dst, want[b])
	}
}

// TestSegCacheResidentChecksSlotHash pins the first of the two per-slot
// checks: a slot whose recorded hash disagrees with the submitted
// segment is not trusted, whatever its content — Serve declines and Run
// recomputes exactly that segment.
func TestSegCacheResidentChecksSlotHash(t *testing.T) {
	const dim, iters, rpi, segIters = 192, 128, 4, 16
	l := planLoop("l", dim, iters, rpi, 1)
	ex := &Exec{Pool: NewBufferPool()}
	cache := NewSegCache(l, segIters)
	for run := 0; run < 2; run++ {
		runPlan(t, []*trace.Loop{l}, segIters, 4, ex, cache)
	}
	dst := make([]float64, dim)
	if !cache.Serve(l, dst) {
		t.Fatal("armed cache declined its own loop")
	}
	cache.slots[2].hash ^= 1
	if cache.Serve(l, dst) {
		t.Fatal("Serve trusted a slot whose hash does not match the segment")
	}
	got, st := runPlan(t, []*trace.Loop{l}, segIters, 4, ex, cache)
	if st.Computed != 1 || st.Reused != 7 {
		t.Fatalf("computed/reused = %d/%d after a hash mismatch, want 1/7", st.Computed, st.Reused)
	}
	assertBits(t, "after hash mismatch", got[0], cutOrder(l, segCuts(l, segIters)))
}

// TestSegCacheBytes holds the admission formula to what an armed cache
// really keeps resident: every slot's sum buffer and retained subscript
// content plus the resident total.
func TestSegCacheBytes(t *testing.T) {
	const dim, iters, rpi, segIters = 192, 128, 4, 16
	l := planLoop("l", dim, iters, rpi, 1)
	cache := NewSegCache(l, segIters)
	for run := 0; run < 2; run++ {
		runPlan(t, []*trace.Loop{l}, segIters, 4, nil, cache)
	}
	if !cache.totalOK {
		t.Fatal("cache not armed after a fully served run")
	}
	held := cap(cache.total) * 8
	for _, slot := range cache.slots {
		held += cap(slot.buf)*8 + len(slot.refs)*4
	}
	if want := SegCacheBytes(l, segIters); held != want {
		t.Fatalf("armed cache holds %d bytes, SegCacheBytes says %d", held, want)
	}
}
