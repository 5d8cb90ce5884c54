package engine

import (
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// simpLoop builds a dense random loop: iters iterations of rpi
// references each into dim elements.
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

// seedResident submits l until its entry's resident is armed: the first
// sight runs direct without hashing, the first hit records the segment
// hashes, and the second hit finds them unchanged and arms the resident
// with its own output. The next unchanged submission is a resident serve.
func seedResident(t *testing.T, e *Engine, l *trace.Loop, want []float64) {
	t.Helper()
	for n := 0; n < 3; n++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Why == residentWhy {
			t.Fatalf("submission %d served resident before the resident was armed", n)
		}
		assertMatches(t, l.Name, res.Values, want)
	}
}

// TestEngineSimplifyFallbackDisjoint submits, after an armed loop, a
// same-fingerprint loop with fully disjoint content: the resident does
// not answer it, and it runs direct under the cached decision with its
// own bits. The armed resident stays and still answers its own loop.
func TestEngineSimplifyFallbackDisjoint(t *testing.T) {
	const dim, iters, rpi = 512, 256, 16
	segIters := reduction.DefaultSegIters(iters, 8)
	l := simpLoop("disjoint", dim, iters, rpi, 3)
	other := mutateKeepingFingerprint(t, l, segIters, 11, func(int) bool { return false })
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, l.RunSequential())

	base := e.Stats()
	res, err := e.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme == residentScheme {
		t.Fatal("disjoint loop answered from the resident")
	}
	if !res.CacheHit {
		t.Error("disjoint loop not reported as a decision-cache hit")
	}
	if d := bitDiffs(res.Values, other.RunSequential()); d > 0 {
		t.Fatalf("disjoint loop differs from RunSequential in %d elements", d)
	}
	if s := e.Stats(); s.SegsComputed != base.SegsComputed || s.SegsReused != base.SegsReused {
		t.Fatal("a direct run that armed nothing moved the segment counters")
	}
	if res, err := e.Submit(l); err != nil || res.Why != residentWhy {
		t.Fatalf("the armed loop after a disjoint one: %s, %v; want a resident serve", res.Why, err)
	}
}

// TestEngineSimplifyMissShutoff: a stream whose content changes on every
// job never arms a resident — each run only records its hashes — so it
// pays no copy and no job of it is answered resident.
func TestEngineSimplifyMissShutoff(t *testing.T) {
	const dim, iters, rpi = 512, 256, 16
	segIters := reduction.DefaultSegIters(iters, 8)
	l := simpLoop("missy", dim, iters, rpi, 5)
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	for n := 0; n < 8; n++ {
		other := mutateKeepingFingerprint(t, l, segIters, int64(100+n), func(int) bool { return false })
		res, err := e.Submit(other)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheme == residentScheme {
			t.Fatalf("job %d answered resident", n)
		}
		assertMatches(t, other.Name, res.Values, other.RunSequential())
	}
	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	armed := entry.res != nil
	entry.mu.Unlock()
	if s := e.Stats(); armed || s.SegsComputed != 0 || s.SegsReused != 0 {
		t.Fatalf("a changing stream armed a resident (%v) or moved the segment counters (%d/%d)", armed, s.SegsComputed, s.SegsReused)
	}
}

// TestEngineSimplifyValuesMatchDirect cross-checks the two paths end to
// end: the same stream of partly-changed loops, each repeated until it
// is answered resident, returns the same bits through Submit as through
// submitDirect, where every job executes.
func TestEngineSimplifyValuesMatchDirect(t *testing.T) {
	const dim, iters, rpi = 512, 256, 16
	segIters := reduction.DefaultSegIters(iters, 8)
	l := simpLoop("xcheck", dim, iters, rpi, 6)
	loops := []*trace.Loop{l}
	for m := 1; m < 5; m++ {
		keepUpTo := 8 - m
		loops = append(loops, mutateKeepingFingerprint(t, l, segIters, int64(40+m), func(s int) bool { return s < keepUpTo }))
	}
	var answers [2][][]float64
	for i, direct := range []bool{false, true} {
		e := mustNew(t, Config{Workers: 1})
		submit := e.Submit
		if direct {
			submit = func(l *trace.Loop) (Result, error) { return submitDirect(e, l) }
		}
		for _, m := range loops {
			for n := 0; n < 4; n++ {
				res, err := submit(m)
				if err != nil {
					t.Fatal(err)
				}
				if direct && res.Why == residentWhy {
					t.Fatalf("loop %s submission %d: a direct submission was answered resident", m.Name, n)
				}
				answers[i] = append(answers[i], res.Values)
			}
		}
		e.Close()
	}
	for k := range answers[0] {
		if d := bitDiffs(answers[0][k], answers[1][k]); d > 0 {
			t.Fatalf("answer %d: Submit and direct differ in %d elements", k, d)
		}
	}
}

// TestResidentAnswersAreDirectBits: under add, max and min, at several
// processor counts, the direct runs that arm a resident, the resident
// answer on the caller and a queued repeat, which runs direct, all carry
// RunSequential's bits.
func TestResidentAnswersAreDirectBits(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		for _, op := range []trace.Op{trace.OpAdd, trace.OpMax, trace.OpMin} {
			l := simpLoop("ops", 512, 256, 16, 13)
			l.Op = op
			want := l.RunSequential()
			e := mustNew(t, Config{Workers: 1, Platform: core.DefaultPlatform(procs)})
			var answers []Result
			for n := 0; n < 3; n++ {
				res, err := e.Submit(l)
				if err != nil {
					t.Fatal(err)
				}
				answers = append(answers, res)
			}
			caller, err := e.Submit(l)
			if err != nil {
				t.Fatal(err)
			}
			if caller.Why != residentWhy {
				t.Fatalf("procs=%d %v: %s (%s), want a resident serve", procs, op, caller.Scheme, caller.Why)
			}
			queued, err := submitDirect(e, l)
			if err != nil {
				t.Fatal(err)
			}
			if queued.Why == residentWhy {
				t.Fatalf("procs=%d %v: a queued repeat was answered resident", procs, op)
			}
			for i, res := range append(answers, caller, queued) {
				if d := bitDiffs(res.Values, want); d > 0 {
					t.Fatalf("procs=%d %v: answer %d (%s) differs from RunSequential in %d elements", procs, op, i, res.Scheme, d)
				}
			}
			e.Close()
		}
	}
}

// TestEngineResidentServe pins the warm exit: once the resident is
// armed, a repeat of the unchanged loop is answered from it on the
// caller — reported under the "simplify" scheme, with every segment
// counted reused and none computed.
func TestEngineResidentServe(t *testing.T) {
	const dim, iters, rpi, segments = 512, 256, 16, 8
	l := simpLoop("resident", dim, iters, rpi, 7)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, want)
	if s := e.Stats(); s.SegsComputed != segments {
		t.Fatalf("arming counted %d segments computed, want %d", s.SegsComputed, segments)
	}

	base := e.Stats()
	res, err := e.Submit(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != residentScheme || res.Why != residentWhy {
		t.Fatalf("repeat ran %s (%s), want the resident serve", res.Scheme, res.Why)
	}
	if !res.CacheHit {
		t.Error("resident serve is not a cache hit")
	}
	assertMatches(t, "resident", res.Values, want)
	s := e.Stats()
	if got := s.SegsReused - base.SegsReused; got != segments {
		t.Errorf("resident serve reused %d segments, want %d", got, segments)
	}
	if got := s.SegsComputed - base.SegsComputed; got != 0 {
		t.Errorf("resident serve computed %d segments, want 0", got)
	}
	if got := s.Schemes[residentScheme] - base.Schemes[residentScheme]; got != 1 {
		t.Errorf("resident serves counted %d, want 1", got)
	}
	if s.Jobs != base.Jobs+1 || s.Batches != base.Batches+1 {
		t.Errorf("jobs/batches = %d/%d after one serve", s.Jobs-base.Jobs, s.Batches-base.Batches)
	}
}

// TestQueuedRepeatRunsDirect: a worker only executes. A queued repeat of
// an armed loop (SubmitFingerprinted) runs the entry's cached scheme,
// not "simplify", into its own destination, with the resident's bits —
// and it leaves the resident as it is: no re-arm, no segment computed,
// the same resident object.
func TestQueuedRepeatRunsDirect(t *testing.T) {
	l := simpLoop("queued", 512, 256, 16, 17)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, want)
	r := residentFor(e, l)
	if !r.answers(l) {
		t.Fatal("resident not armed")
	}
	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	cached := entry.rec.Scheme
	entry.mu.Unlock()

	base := e.Stats()
	for n := 0; n < 3; n++ {
		dst := make([]float64, l.NumElems)
		h, err := e.SubmitFingerprinted(l, l.Fingerprint(), dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Scheme != cached || res.Why == residentWhy || !res.CacheHit {
			t.Fatalf("queued repeat %d ran %s (%s, hit %v), want the cached %s", n, res.Scheme, res.Why, res.CacheHit, cached)
		}
		if &res.Values[0] != &dst[0] {
			t.Errorf("queued repeat %d: result does not alias its dst", n)
		}
		if d := bitDiffs(res.Values, r.values); d > 0 {
			t.Fatalf("queued repeat %d differs from the resident in %d elements", n, d)
		}
	}
	s := e.Stats()
	if s.SegsComputed != base.SegsComputed || s.SegsReused != base.SegsReused {
		t.Errorf("queued repeats moved the segment counters: computed %d, reused %d",
			s.SegsComputed-base.SegsComputed, s.SegsReused-base.SegsReused)
	}
	if got := s.Schemes[cached] - base.Schemes[cached]; got != 3 {
		t.Errorf("%s counted %d executions, want 3", cached, got)
	}
	if residentFor(e, l) != r {
		t.Error("a queued repeat replaced the armed resident")
	}
}

// TestEngineResidentSurvivesDecisionSwitch: a recalibration scheme
// switch leaves the resident as it is, because every scheme answers with
// RunSequential's bits. The next submission is answered from the same
// resident with those bits and computes no segment, and a direct run
// under the new scheme gives the same bits and re-arms nothing.
func TestEngineResidentSurvivesDecisionSwitch(t *testing.T) {
	l := simpLoop("switch", 512, 256, 16, 8)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, want)
	r := residentFor(e, l)

	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	next := "lw"
	if entry.rec.Scheme == next {
		next = "hash"
	}
	entry.install(entry.profile, adapt.Recommendation{Scheme: next, Why: "forced switch"})
	entry.newDecision()
	entry.mu.Unlock()

	base := e.Stats()
	res, err := e.Submit(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Why != residentWhy {
		t.Fatalf("first submission after the switch ran %s (%s), want the resident serve", res.Scheme, res.Why)
	}
	if d := bitDiffs(res.Values, want); d > 0 {
		t.Fatalf("resident serve after the switch differs from RunSequential in %d elements", d)
	}
	direct, err := submitDirect(e, l)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Scheme != next {
		t.Fatalf("direct run after the switch ran %s, want %s", direct.Scheme, next)
	}
	if d := bitDiffs(direct.Values, want); d > 0 {
		t.Fatalf("%s after the switch differs from RunSequential in %d elements", next, d)
	}
	if got := e.Stats().SegsComputed - base.SegsComputed; got != 0 {
		t.Errorf("the switch cost %d segments re-armed, want 0", got)
	}
	if residentFor(e, l) != r {
		t.Error("the switch replaced the armed resident")
	}
}

// TestEngineResidentFollowsContent drives one entry with distinct
// same-fingerprint objects: a member sharing 7/8 of the armed loop's
// stream runs direct until its content comes back and is armed in turn,
// the first loop coming back gets its own answer again, and an object
// with the same fingerprint but unrelated content is never served
// either.
func TestEngineResidentFollowsContent(t *testing.T) {
	ms := workloads.NewSharedSubrangeStream(2, 0, 0.125, 5).Members
	a, b := ms[0], ms[1]
	wantA, wantB := a.RunSequential(), b.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, a, wantA)

	segments := uint64(len(segHashes(nil, a, reduction.DefaultSegIters(a.NumIters(), e.cfg.Platform.Procs))))
	submit := func(l *trace.Loop, want []float64, resident bool, computed uint64) {
		t.Helper()
		base := e.Stats()
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if d := bitDiffs(res.Values, want); d > 0 {
			t.Fatalf("%s: %d elements differ from RunSequential", l.Name, d)
		}
		if got := res.Why == residentWhy; got != resident {
			t.Fatalf("%s: resident = %v (%s: %s), want %v", l.Name, got, res.Scheme, res.Why, resident)
		}
		if got := e.Stats().SegsComputed - base.SegsComputed; got != computed {
			t.Fatalf("%s: computed %d segments, want %d", l.Name, got, computed)
		}
	}
	submit(a, wantA, true, 0)
	submit(b, wantB, false, 0)        // new content: record its hashes
	submit(b, wantB, false, segments) // the content came back: arm
	submit(b, wantB, true, 0)
	submit(a, wantA, false, 0)
	submit(a, wantA, false, segments)
	submit(a, wantA, true, 0)

	segIters := reduction.DefaultSegIters(a.NumIters(), e.cfg.Platform.Procs)
	stranger := mutateKeepingFingerprint(t, a, segIters, 11, func(int) bool { return false })
	submit(stranger, stranger.RunSequential(), false, 0)
	submit(a, wantA, true, 0)
}
