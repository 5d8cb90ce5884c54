package engine

import (
	"math/rand"
	"testing"

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

// TestEngineSimplifyDisabled pins the opt-out: with DisableSimplify no
// resident is armed and no job is answered from one, no matter how
// often a loop repeats.
func TestEngineSimplifyDisabled(t *testing.T) {
	l := simpLoop("off", 512, 256, 16, 4)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1, DisableSimplify: true})
	defer e.Close()
	for n := 0; n < 6; n++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheme == residentScheme {
			t.Fatalf("submission %d answered resident with residency disabled", n)
		}
		assertMatches(t, "off", res.Values, want)
	}
	s := e.Stats()
	if s.SegsComputed != 0 || s.SegsReused != 0 {
		t.Fatalf("segment counters moved while disabled: %d/%d", s.SegsComputed, s.SegsReused)
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
// is answered resident, returns the same bits with residency on and off.
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
	for i, disable := range []bool{false, true} {
		e := mustNew(t, Config{Workers: 1, DisableSimplify: disable})
		for _, m := range loops {
			for n := 0; n < 4; n++ {
				res, err := e.Submit(m)
				if err != nil {
					t.Fatal(err)
				}
				answers[i] = append(answers[i], res.Values)
			}
		}
		e.Close()
	}
	for k := range answers[0] {
		if d := bitDiffs(answers[0][k], answers[1][k]); d > 0 {
			t.Fatalf("answer %d: residency on and off differ in %d elements", k, d)
		}
	}
}

// TestResidentAnswersAreDirectBits: under every operator, a resident
// answer — on the caller and on a worker — carries the bits of the
// direct execution that armed it on the same engine, at several
// processor counts (mul's bits depend on the scheme's cut).
func TestResidentAnswersAreDirectBits(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		for _, op := range []trace.Op{trace.OpAdd, trace.OpMax, trace.OpMin, trace.OpMul} {
			l := simpLoop("ops", 512, 256, 16, 13)
			l.Op = op
			e := mustNew(t, Config{Workers: 1, Platform: core.DefaultPlatform(procs)})
			var first []float64
			for n := 0; n < 3; n++ {
				res, err := e.Submit(l)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					first = res.Values
				} else if d := bitDiffs(res.Values, first); d > 0 {
					t.Fatalf("procs=%d %v: direct run %d differs from the first in %d elements", procs, op, n, d)
				}
			}
			caller, err := e.Submit(l)
			if err != nil {
				t.Fatal(err)
			}
			h, err := e.SubmitFingerprinted(l, l.Fingerprint(), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			worker := h.Wait()
			for _, res := range []Result{caller, worker} {
				if res.Why != residentWhy {
					t.Fatalf("procs=%d %v: %s (%s), want a resident serve", procs, op, res.Scheme, res.Why)
				}
				if d := bitDiffs(res.Values, first); d > 0 {
					t.Fatalf("procs=%d %v: resident answer differs from the direct one in %d elements", procs, op, d)
				}
			}
			e.Close()
		}
	}
}

// TestEngineResidentServe pins the warm exit: once the resident is
// armed, a repeat of the unchanged loop is answered from it — reported
// under the "simplify" scheme, with every segment counted reused and
// none computed — on the caller and, for a queued job, on a worker, each
// copy in the job's own destination.
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

	// A queued repeat is served the same way by the worker, into its
	// own destination.
	dst := make([]float64, dim)
	h, err := e.SubmitFingerprinted(l, l.Fingerprint(), dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	res = h.Wait()
	if res.Why != residentWhy {
		t.Fatalf("queued repeat: Why %q", res.Why)
	}
	if &res.Values[0] != &dst[0] {
		t.Error("queued repeat: result does not alias its dst")
	}
	assertMatches(t, "queued", res.Values, want)
	if s := e.Stats(); s.Jobs != base.Jobs+2 || s.Batches != base.Batches+2 {
		t.Errorf("jobs/batches = %d/%d after two serves", s.Jobs-base.Jobs, s.Batches-base.Batches)
	}
}

// TestEngineResidentDropsOnDecisionSwitch: a recalibration scheme switch
// takes the resident and the recorded hashes down — the next two
// submissions run direct (the first records, the second re-arms), never
// answered from a result of the old decision.
func TestEngineResidentDropsOnDecisionSwitch(t *testing.T) {
	l := simpLoop("switch", 512, 256, 16, 8)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, want)

	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	entry.newDecision()
	entry.mu.Unlock()

	base := e.Stats()
	for n := 0; n < 3; n++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if resident := res.Why == residentWhy; resident != (n == 2) {
			t.Fatalf("submission %d after the switch: resident = %v", n, resident)
		}
		assertMatches(t, "switch", res.Values, want)
	}
	s := e.Stats()
	if got := s.SegsComputed - base.SegsComputed; got != 8 {
		t.Errorf("re-arming computed %d segments, want all 8", got)
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
