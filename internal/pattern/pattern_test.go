package pattern

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// uniformLoop builds a loop with iters iterations, each referencing
// refsPerIter elements drawn uniformly from [0, elems).
func uniformLoop(t testing.TB, elems, iters, refsPerIter int, seed int64) *trace.Loop {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop("uniform", elems)
	refs := make([]int32, refsPerIter)
	for i := 0; i < iters; i++ {
		for k := range refs {
			refs[k] = int32(rng.Intn(elems))
		}
		l.AddIter(refs...)
	}
	return l
}

func TestCharacterizeKnownPattern(t *testing.T) {
	// 4 elements; element 0 referenced 3 times, element 1 once.
	l := trace.NewLoop("known", 4)
	l.AddIter(0, 0)
	l.AddIter(0, 1)
	p := Characterize(l, 2, 64)

	if p.TotalRefs != 4 {
		t.Errorf("TotalRefs = %d, want 4", p.TotalRefs)
	}
	if p.Distinct != 2 {
		t.Errorf("Distinct = %d, want 2", p.Distinct)
	}
	// CHR = 4 refs / (2 procs * 4 elems) = 0.5
	if math.Abs(p.CHR-0.5) > 1e-12 {
		t.Errorf("CHR = %g, want 0.5", p.CHR)
	}
	// CON = 2 iters / 2 distinct = 1
	if math.Abs(p.CON-1) > 1e-12 {
		t.Errorf("CON = %g, want 1", p.CON)
	}
	// MO: iter0 touches 1 distinct elem, iter1 touches 2 -> 1.5
	if math.Abs(p.MO-1.5) > 1e-12 {
		t.Errorf("MO = %g, want 1.5", p.MO)
	}
	// SP = 2/4 = 50%
	if math.Abs(p.SP-50) > 1e-12 {
		t.Errorf("SP = %g, want 50", p.SP)
	}
	// DIM = 32 bytes / 64 bytes = 0.5
	if math.Abs(p.DIM-0.5) > 1e-12 {
		t.Errorf("DIM = %g, want 0.5", p.DIM)
	}
	// CH: one element with 3 refs, one with 1 ref.
	if p.CH.Count(3) != 1 || p.CH.Count(1) != 1 {
		t.Errorf("CH counts: CH(3)=%d CH(1)=%d", p.CH.Count(3), p.CH.Count(1))
	}
	if p.MaxRefsPerElem != 3 {
		t.Errorf("MaxRefsPerElem = %d, want 3", p.MaxRefsPerElem)
	}
}

func TestCHDSumsToOne(t *testing.T) {
	l := uniformLoop(t, 100, 500, 3, 1)
	p := Characterize(l, 8, 32<<10)
	bins, frac := p.CHD()
	if len(bins) != len(frac) {
		t.Fatal("bins/frac length mismatch")
	}
	var sum float64
	for _, f := range frac {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("CHD fractions sum to %g, want 1", sum)
	}
}

func TestCHDEmpty(t *testing.T) {
	l := trace.NewLoop("empty", 10)
	p := Characterize(l, 4, 1024)
	if bins, frac := p.CHD(); bins != nil || frac != nil {
		t.Error("CHD of empty loop should be nil, nil")
	}
	if p.CON != 0 || p.MO != 0 || p.SP != 0 {
		t.Errorf("empty loop metrics should be zero: %+v", p)
	}
}

func TestHighContentionFraction(t *testing.T) {
	l := trace.NewLoop("hc", 10)
	// Element 0: 5 refs. Elements 1..4: 1 ref each.
	l.AddIter(0, 0, 0, 0, 0)
	l.AddIter(1, 2, 3, 4)
	p := Characterize(l, 4, 1024)
	if got := p.HighContentionFraction(5); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("HighContentionFraction(5) = %g, want 0.2", got)
	}
	if got := p.HighContentionFraction(1); got != 1 {
		t.Errorf("HighContentionFraction(1) = %g, want 1", got)
	}
	if got := p.HighContentionFraction(6); got != 0 {
		t.Errorf("HighContentionFraction(6) = %g, want 0", got)
	}
}

func TestSampledCloseToExact(t *testing.T) {
	relErr := func(a, b float64) float64 {
		if b == 0 {
			return math.Abs(a)
		}
		return math.Abs(a-b) / math.Abs(b)
	}
	// thin references 8000 of its 20000 elements six times each, so a
	// 1-in-8 sample cannot see all of them: the SP assertion below only
	// holds through the occupancy correction. covered's 40 references per
	// element survive any sampling; it checks the correction leaves a
	// fully observed footprint alone.
	thin := trace.NewLoop("thin", 20000)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 24000; i++ {
		thin.AddIter(int32(rng.Intn(8000)), int32(rng.Intn(8000)))
	}
	for _, tc := range []struct {
		l      *trace.Loop
		stride int
	}{
		{uniformLoop(t, 2000, 40000, 2, 7), 10},
		{thin, 8},
	} {
		exact := Characterize(tc.l, 8, 512<<10)
		sampled := CharacterizeSampled(tc.l, 8, 512<<10, tc.stride)
		if !sampled.Sampled || sampled.SampleStride != tc.stride {
			t.Fatalf("sampled flags wrong: %+v", sampled)
		}
		if e := relErr(sampled.CHR, exact.CHR); e > 0.05 {
			t.Errorf("%s: sampled CHR %.4g vs exact %.4g (err %.2f)", tc.l.Name, sampled.CHR, exact.CHR, e)
		}
		if e := relErr(sampled.MO, exact.MO); e > 0.05 {
			t.Errorf("%s: sampled MO %.4g vs exact %.4g (err %.2f)", tc.l.Name, sampled.MO, exact.MO, e)
		}
		// Sparsity and connectivity use the occupancy correction; allow
		// 15% relative error.
		if e := relErr(sampled.SP, exact.SP); e > 0.15 {
			t.Errorf("%s: sampled SP %.4g vs exact %.4g (err %.2f)", tc.l.Name, sampled.SP, exact.SP, e)
		}
		if e := relErr(sampled.CON, exact.CON); e > 0.15 {
			t.Errorf("%s: sampled CON %.4g vs exact %.4g (err %.2f)", tc.l.Name, sampled.CON, exact.CON, e)
		}
	}
	if seen, all := CharacterizeSampled(thin, 8, 512<<10, 8).Distinct, Characterize(thin, 8, 512<<10).Distinct; 4*seen > 3*all {
		t.Fatalf("the thin loop's sample saw %d of %d referenced elements; the case no longer needs the correction", seen, all)
	}
}

func TestSampledStrideOneMatchesExact(t *testing.T) {
	l := uniformLoop(t, 100, 300, 2, 3)
	exact := Characterize(l, 4, 1024)
	s := CharacterizeSampled(l, 4, 1024, 1)
	if s.Sampled {
		t.Error("stride-1 sampling should not be flagged as sampled")
	}
	if s.CHR != exact.CHR || s.SP != exact.SP || s.CON != exact.CON {
		t.Errorf("stride-1 profile differs from exact: %+v vs %+v", s, exact)
	}
}

func TestDistanceProperties(t *testing.T) {
	l1 := uniformLoop(t, 100, 300, 2, 3)
	l2 := uniformLoop(t, 100, 3000, 2, 4)
	a := Characterize(l1, 8, 1024)
	b := Characterize(l2, 8, 1024)
	if d := Distance(a, a); d != 0 {
		t.Errorf("Distance(a,a) = %g, want 0", d)
	}
	dab, dba := Distance(a, b), Distance(b, a)
	if dab != dba {
		t.Errorf("Distance not symmetric: %g vs %g", dab, dba)
	}
	if dab <= 0 {
		t.Errorf("Distance(a,b) = %g, want > 0 for different loops", dab)
	}
	if dab > 1 {
		t.Errorf("relative distance should be <= 1, got %g", dab)
	}
}

func TestTrackerThreshold(t *testing.T) {
	small := uniformLoop(t, 1000, 10000, 2, 1)
	similar := uniformLoop(t, 1000, 10500, 2, 2) // ~5% more iterations
	veryDiff := uniformLoop(t, 1000, 100000, 2, 3)

	var tr Tracker
	p1 := Characterize(small, 8, 1024)
	if !tr.Update(p1) {
		t.Fatal("first update must trigger characterization")
	}
	p2 := Characterize(similar, 8, 1024)
	if tr.Update(p2) {
		t.Error("a ~5%% change should not exceed the default 25%% threshold")
	}
	if tr.Baseline() != p1 {
		t.Error("baseline should be unchanged after a non-trigger update")
	}
	p3 := Characterize(veryDiff, 8, 1024)
	if !tr.Update(p3) {
		t.Error("a 10x change must trigger re-characterization")
	}
	if tr.Baseline() != p3 {
		t.Error("baseline should advance after a trigger")
	}
	checks, triggers := tr.Stats()
	if checks != 3 || triggers != 2 {
		t.Errorf("Stats = (%d,%d), want (3,2)", checks, triggers)
	}
}

func TestTrackerCustomThreshold(t *testing.T) {
	tr := Tracker{Threshold: 0.01}
	a := uniformLoop(t, 1000, 10000, 2, 1)
	b := uniformLoop(t, 1000, 10500, 2, 2)
	tr.Update(Characterize(a, 8, 1024))
	if !tr.Update(Characterize(b, 8, 1024)) {
		t.Error("5%% change must trigger at a 1%% threshold")
	}
}

func TestCharacterizeDefensiveArgs(t *testing.T) {
	l := uniformLoop(t, 10, 20, 1, 1)
	p := Characterize(l, 0, 0) // invalid procs/cache are clamped
	if p.Procs != 1 || p.CacheBytes != 1 {
		t.Errorf("clamped Procs/CacheBytes = %d/%d, want 1/1", p.Procs, p.CacheBytes)
	}
}

func TestStringContainsMetrics(t *testing.T) {
	l := uniformLoop(t, 10, 20, 1, 1)
	p := Characterize(l, 2, 64)
	s := p.String()
	if len(s) == 0 || s[:7] != "uniform" {
		t.Errorf("String = %q", s)
	}
}

func TestQuickCHTotalEqualsDistinct(t *testing.T) {
	// Property: the CH histogram total equals the distinct element count,
	// and the sum over bins of bin*count equals total references.
	f := func(pattern []uint8) bool {
		if len(pattern) == 0 {
			return true
		}
		l := trace.NewLoop("q", 32)
		for _, p := range pattern {
			l.AddIter(int32(int(p) % 32))
		}
		prof := Characterize(l, 4, 256)
		if prof.CH.Total() != prof.Distinct {
			return false
		}
		sum := 0
		for _, b := range prof.CH.Bins() {
			sum += b * prof.CH.Count(b)
		}
		return sum == prof.TotalRefs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
