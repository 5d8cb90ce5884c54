package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// simpLoop builds a dense random loop sized so the simplification
// boundary accepts it: the reference stream (iters*rpi) dwarfs the
// output dimension. rpi must divide the fingerprint sample stride
// evenly for mutateKeepingFingerprint to work (any rpi does; the helper
// recomputes the stride from the loop).
func simpLoop(name string, dim, iters, rpi int, seed int64) *trace.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop(name, dim)
	refs := make([]int32, rpi)
	for i := 0; i < iters; i++ {
		for j := range refs {
			refs[j] = int32(rng.Intn(dim))
		}
		l.AddIter(refs...)
	}
	return l
}

// mutateKeepingFingerprint clones l and re-randomizes the subscript
// content of every segment for which keep(s) is false — except at the
// fingerprint's sample positions, which stay anchored so both loops
// carry the same fingerprint and land on the same decision-cache entry
// (the drift-stream construction).
func mutateKeepingFingerprint(t *testing.T, l *trace.Loop, segIters int, seed int64, keep func(s int) bool) *trace.Loop {
	t.Helper()
	c := l.Clone()
	offs, refs := c.Flat()
	iters := c.NumIters()
	segs := (iters + segIters - 1) / segIters
	stride := len(refs) / 256
	if stride < 1 {
		stride = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < segs; s++ {
		if keep(s) {
			continue
		}
		itHi := (s + 1) * segIters
		if itHi > iters {
			itHi = iters
		}
		for r := int(offs[s*segIters]); r < int(offs[itHi]); r++ {
			if r%stride == 0 {
				continue
			}
			refs[r] = int32(rng.Intn(c.NumElems))
		}
	}
	if c.Fingerprint() != l.Fingerprint() {
		t.Fatal("mutation broke the fingerprint anchor")
	}
	return c
}

// TestEngineSimplifyIncremental is the drift-stream property at the
// engine level: a stream that mutates one segment between submissions
// recomputes only that segment once its cache is seeded — and distinct
// loops sharing subranges, submitted one at a time, share the sums of
// what they have in common.
func TestEngineSimplifyIncremental(t *testing.T) {
	const dim, iters, rpi = 512, 256, 16
	segIters := reduction.DefaultSegIters(iters, 8)
	l := simpLoop("inc", dim, iters, rpi, 2)
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()

	// Submissions 1..segSeedAfter-1 run direct while segSeen climbs; the
	// seeding submission executes simplified to fill the cache.
	for n := 0; n < segSeedAfter; n++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		seeding := n == segSeedAfter-1
		if simplified := res.Scheme == "simplify"; simplified != seeding {
			t.Fatalf("submission %d ran %s", n, res.Scheme)
		}
	}
	base := e.Stats()
	if base.SimplifiedBatches != 1 {
		t.Fatalf("SimplifiedBatches = %d after seeding, want 1", base.SimplifiedBatches)
	}

	// Mutate only segment 3; the rest must come from the cache.
	drift := mutateKeepingFingerprint(t, l, segIters, 99, func(s int) bool { return s != 3 })
	res, err := e.Submit(drift)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "simplify" {
		t.Fatalf("drift submission ran %s, want simplify (%s)", res.Scheme, res.Why)
	}
	assertMatches(t, "drift", res.Values, drift.RunSequential())
	s := e.Stats()
	if got := s.SegsComputed - base.SegsComputed; got != 1 {
		t.Errorf("drift submission computed %d segments, want 1", got)
	}
	if got := s.SegsReused - base.SegsReused; got != 7 {
		t.Errorf("drift submission reused %d segments, want 7", got)
	}

	// Shared subranges: each member differs from the others in one
	// window, so once the first member seeds the cache, every later one
	// reuses the windows it shares with the member run before it.
	ss := workloads.NewSharedSubrangeStream(4, 0, 0.125, 3)
	e2 := mustNew(t, Config{Workers: 1})
	defer e2.Close()
	seedCache(t, e2, ss.Members[0])
	base = e2.Stats()
	for _, m := range ss.Members[1:] {
		res, err := e2.Submit(m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheme != "simplify" {
			t.Fatalf("%s ran %s, want simplify (%s)", m.Name, res.Scheme, res.Why)
		}
		assertMatches(t, m.Name, res.Values, m.RunSequential())
	}
	s = e2.Stats()
	if s.SegsReused == base.SegsReused {
		t.Error("no segment sum reused across distinct shared-subrange members")
	}
}

// seedCache submits l segSeedAfter times: direct runs while the entry
// counts, then the seeding run that fills its segment cache.
func seedCache(t *testing.T, e *Engine, l *trace.Loop) {
	t.Helper()
	for n := 0; n < segSeedAfter; n++ {
		if _, err := e.Submit(l); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineSimplifyFallbackDisjoint submits, after a seeded loop, a
// same-fingerprint loop with fully disjoint content: the analysis finds
// no cached segment, the boundary declines, and the job falls back to a
// correct direct execution under the cached decision.
func TestEngineSimplifyFallbackDisjoint(t *testing.T) {
	const dim, iters, rpi = 512, 256, 16
	segIters := reduction.DefaultSegIters(iters, 8)
	l := simpLoop("disjoint", dim, iters, rpi, 3)
	other := mutateKeepingFingerprint(t, l, segIters, 11, func(int) bool { return false })
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedCache(t, e, l)

	base := e.Stats()
	res, err := e.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme == "simplify" {
		t.Fatal("disjoint loop ran simplified")
	}
	if !res.CacheHit {
		t.Error("disjoint loop not reported as a decision-cache hit")
	}
	assertMatches(t, other.Name, res.Values, other.RunSequential())
	s := e.Stats()
	if got := s.SimplifyFallbacks - base.SimplifyFallbacks; got != 1 {
		t.Fatalf("fallbacks moved by %d, want 1", got)
	}
	if s.SimplifiedBatches != base.SimplifiedBatches {
		t.Fatal("disjoint loop counted as simplified")
	}
}

// TestEngineSimplifyDisabled pins the opt-out: with DisableSimplify no
// batch ever runs simplified and no cache is seeded, no matter how often
// a seed-worthy pattern repeats.
func TestEngineSimplifyDisabled(t *testing.T) {
	l := simpLoop("off", 512, 256, 16, 4)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1, DisableSimplify: true})
	defer e.Close()
	for n := 0; n < segSeedAfter+2; n++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheme == "simplify" {
			t.Fatalf("submission %d ran simplified with the layer disabled", n)
		}
		assertMatches(t, "off", res.Values, want)
	}
	s := e.Stats()
	if s.SimplifiedBatches != 0 || s.SimplifyFallbacks != 0 {
		t.Fatalf("simplify counters moved while disabled: %d/%d", s.SimplifiedBatches, s.SimplifyFallbacks)
	}
}

// TestEngineSimplifyMissShutoff drives consecutive declined analyses
// past segMissLimit: the layer must stop analyzing (fallback counter
// freezes) instead of paying the sweep on every job forever.
func TestEngineSimplifyMissShutoff(t *testing.T) {
	const dim, iters, rpi = 512, 256, 16
	segIters := reduction.DefaultSegIters(iters, 8)
	l := simpLoop("missy", dim, iters, rpi, 5)
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedCache(t, e, l)

	base := e.Stats()
	for n := 0; n < segMissLimit+3; n++ {
		other := mutateKeepingFingerprint(t, l, segIters, int64(100+n), func(int) bool { return false })
		res, err := e.Submit(other)
		if err != nil {
			t.Fatal(err)
		}
		assertMatches(t, other.Name, res.Values, other.RunSequential())
	}
	s := e.Stats()
	if got := s.SimplifyFallbacks - base.SimplifyFallbacks; got != segMissLimit {
		t.Fatalf("fallbacks = %d, want shutoff at %d", got, segMissLimit)
	}
	if s.SimplifiedBatches != base.SimplifiedBatches {
		t.Fatalf("SimplifiedBatches moved by %d, want 0", s.SimplifiedBatches-base.SimplifiedBatches)
	}
}

// TestEngineSimplifyValuesMatchDirect cross-checks the two execution
// paths end to end: the same stream of partly-changed loops produces
// (tolerance-equal) results with the layer on and off.
func TestEngineSimplifyValuesMatchDirect(t *testing.T) {
	const dim, iters, rpi = 512, 256, 16
	segIters := reduction.DefaultSegIters(iters, 8)
	l := simpLoop("xcheck", dim, iters, rpi, 6)
	loops := []*trace.Loop{l}
	for m := 1; m < 5; m++ {
		keepUpTo := 8 - m
		loops = append(loops, mutateKeepingFingerprint(t, l, segIters, int64(40+m), func(s int) bool { return s < keepUpTo }))
	}
	for _, disable := range []bool{false, true} {
		e := mustNew(t, Config{Workers: 1, DisableSimplify: disable})
		seedCache(t, e, l)
		for _, m := range loops {
			res, err := e.Submit(m)
			if err != nil {
				t.Fatal(err)
			}
			assertMatches(t, m.Name, res.Values, m.RunSequential())
			if math.IsNaN(res.Values[0]) {
				t.Fatal("NaN result")
			}
		}
		e.Close()
	}
}

// seedResident submits l until its segment cache is seeded and its
// resident result armed: segSeedAfter-1 direct runs, the seeding run, and
// one planned warm run whose every part is served (that fold arms the
// total). The next unchanged submission is a resident serve.
func seedResident(t *testing.T, e *Engine, l *trace.Loop, want []float64) {
	t.Helper()
	for n := 0; n < segSeedAfter+1; n++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Why == residentWhy {
			t.Fatalf("submission %d served resident before the total was armed", n)
		}
		assertMatches(t, l.Name, res.Values, want)
	}
}

// TestEngineResidentServe pins the warm exit: once the cache is armed, a
// repeat of the unchanged loop is answered from the resident result —
// reported as a simplified execution that reused every segment and
// computed none — on the caller and, for a queued job, on a worker, each
// copy in the job's own destination.
func TestEngineResidentServe(t *testing.T) {
	const dim, iters, rpi, segments = 512, 256, 16, 8
	l := simpLoop("resident", dim, iters, rpi, 7)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, want)

	base := e.Stats()
	res, err := e.Submit(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "simplify" || res.Why != residentWhy {
		t.Fatalf("repeat ran %s (%s), want the resident serve", res.Scheme, res.Why)
	}
	if !res.CacheHit || res.BatchSize != 1 {
		t.Errorf("CacheHit/BatchSize = %v/%d, want true/1", res.CacheHit, res.BatchSize)
	}
	assertMatches(t, "resident", res.Values, want)
	s := e.Stats()
	if got := s.SegsReused - base.SegsReused; got != segments {
		t.Errorf("resident serve reused %d segments, want %d", got, segments)
	}
	if got := s.SegsComputed - base.SegsComputed; got != 0 {
		t.Errorf("resident serve computed %d segments, want 0", got)
	}
	if got := s.SimplifiedBatches - base.SimplifiedBatches; got != 1 {
		t.Errorf("SimplifiedBatches moved by %d, want 1", got)
	}
	if s.SimplifyFallbacks != base.SimplifyFallbacks {
		t.Errorf("resident serve counted a fallback")
	}

	// A queued repeat is served the same way by the worker, into its
	// own destination.
	dst := make([]float64, dim)
	h, err := e.SubmitFingerprinted(l, l.Fingerprint(), dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	res = h.Wait()
	if res.Why != residentWhy || res.BatchSize != 1 {
		t.Fatalf("queued repeat: Why %q BatchSize %d", res.Why, res.BatchSize)
	}
	if &res.Values[0] != &dst[0] {
		t.Error("queued repeat: result does not alias its dst")
	}
	assertMatches(t, "queued", res.Values, want)
	if s := e.Stats(); s.Jobs != base.Jobs+2 || s.Coalesced != 0 {
		t.Errorf("jobs/coalesced = %d/%d after two serves", s.Jobs, s.Coalesced)
	}
}

// TestEngineResidentDropsOnDecisionSwitch: a recalibration scheme switch
// (a decGen bump) takes the resident result down with the slots — the
// next submissions run direct and re-seed from scratch, never from a
// total folded under the old decision.
func TestEngineResidentDropsOnDecisionSwitch(t *testing.T) {
	l := simpLoop("switch", 512, 256, 16, 8)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, want)

	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	entry.decGen++
	entry.mu.Unlock()

	base := e.Stats()
	for n := 0; n < segSeedAfter; n++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Why == residentWhy {
			t.Fatalf("submission %d after the switch was served the old resident result", n)
		}
		assertMatches(t, "switch", res.Values, want)
	}
	s := e.Stats()
	if got := s.SegsComputed - base.SegsComputed; got != 8 {
		t.Errorf("re-seeding computed %d segments, want all 8", got)
	}
	if s.SegsReused != base.SegsReused {
		t.Errorf("segments reused across a decision switch")
	}
}

// TestEngineResidentFollowsContent drives one entry with distinct
// same-fingerprint objects: a member sharing 7/8 of the armed loop's
// stream recomputes its one window and is armed in turn, the first loop
// coming back gets its own answer again, and an object with the same
// fingerprint but unrelated content is never served either total.
func TestEngineResidentFollowsContent(t *testing.T) {
	ms := workloads.NewSharedSubrangeStream(2, 0, 0.125, 5).Members // 4096 iterations: windows align with the 8 segments
	a, b := ms[0], ms[1]
	wantA, wantB := a.RunSequential(), b.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, a, wantA)

	submit := func(l *trace.Loop, want []float64, resident bool, computed uint64) {
		t.Helper()
		base := e.Stats()
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		assertMatches(t, l.Name, res.Values, want)
		if got := res.Why == residentWhy; got != resident {
			t.Fatalf("%s: resident = %v (%s: %s), want %v", l.Name, got, res.Scheme, res.Why, resident)
		}
		if got := e.Stats().SegsComputed - base.SegsComputed; got != computed {
			t.Fatalf("%s: computed %d segments, want %d", l.Name, got, computed)
		}
	}
	submit(a, wantA, true, 0)
	submit(b, wantB, false, 1) // one window moved: refresh its slot
	submit(b, wantB, false, 0) // every part served: re-arm
	submit(b, wantB, true, 0)
	submit(a, wantA, false, 1)
	submit(a, wantA, false, 0)
	submit(a, wantA, true, 0)

	segIters := reduction.DefaultSegIters(a.NumIters(), e.cfg.Platform.Procs)
	stranger := mutateKeepingFingerprint(t, a, segIters, 11, func(int) bool { return false })
	submit(stranger, stranger.RunSequential(), false, 0) // declined: runs direct
	submit(a, wantA, true, 0)
}
