package engine

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// serveResident runs ServeResident and returns a copy of what use saw.
func serveResident(e *Engine, l *trace.Loop, tenant int) (Result, bool) {
	var got Result
	ok := e.ServeResident(l, l.Fingerprint(), tenant, func(res Result) {
		got = res
		got.Values = append([]float64(nil), res.Values...)
	})
	return got, ok
}

// residentFor returns l's entry's resident.
func residentFor(e *Engine, l *trace.Loop) *resident {
	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	defer entry.mu.Unlock()
	return entry.res
}

// stageCount is how many observations stage s has in a Stats snapshot.
func stageCount(s Stats, name string) uint64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Snap.Count
		}
	}
	return 0
}

// TestServeResidentStatsParity: an inline serve moves the engine's
// counters exactly as a worker's resident serve of the same loop does —
// job, batch, cache hit, scheme, reused segments, the tenant's row and
// one execute observation — and it lands in the caller shard, which
// Stats sums. Its Values carry the worker's bits and alias the
// resident's vector.
func TestServeResidentStatsParity(t *testing.T) {
	l := simpLoop("parity", 512, 256, 16, 7)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1, Tenants: []TenantConfig{{Name: "t1"}}})
	defer e.Close()
	seedResident(t, e, l, want)

	before := e.Stats()
	h, err := e.SubmitFingerprinted(l, l.Fingerprint(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	worker := h.Wait()
	if worker.Why != residentWhy {
		t.Fatalf("worker path ran %s (%s), want the resident serve", worker.Scheme, worker.Why)
	}
	mid := e.Stats()
	callerJobs := e.caller.c.Jobs
	inline, ok := serveResident(e, l, 1)
	if !ok {
		t.Fatal("ServeResident declined an armed, unchanged loop")
	}
	after := e.Stats()

	if inline.Scheme != worker.Scheme || inline.Why != worker.Why || inline.CacheHit != worker.CacheHit {
		t.Errorf("inline %s/%q/%v, worker %s/%q/%v", inline.Scheme, inline.Why, inline.CacheHit,
			worker.Scheme, worker.Why, worker.CacheHit)
	}
	for i := range worker.Values {
		if math.Float64bits(inline.Values[i]) != math.Float64bits(worker.Values[i]) {
			t.Fatalf("element %d: inline %v, worker %v", i, inline.Values[i], worker.Values[i])
		}
	}
	e.ServeResident(l, l.Fingerprint(), 1, func(res Result) {
		if &res.Values[0] != &residentFor(e, l).values[0] {
			t.Error("inline Values do not alias the resident's vector")
		}
	})
	after2 := e.Stats()
	if e.caller.c.Jobs != callerJobs+2 {
		t.Errorf("caller shard counted %d jobs, want 2", e.caller.c.Jobs-callerJobs)
	}

	wd, id := mid.Sub(before), after.Sub(mid)
	for _, f := range StatsFields {
		if f.Kind != obs.Counter {
			continue
		}
		if w, i := f.Get(&wd), f.Get(&id); w != i {
			t.Errorf("%s: worker serve moved it by %d, inline serve by %d", f.Series, w, i)
		}
	}
	if wd.Schemes[residentScheme] != 1 || id.Schemes[residentScheme] != 1 || len(id.Schemes) != 1 {
		t.Errorf("scheme mix: worker %v, inline %v", wd.Schemes, id.Schemes)
	}
	for i := range wd.Tenants {
		for _, f := range TenantFields {
			if f.Kind == obs.Counter && f.Get(&wd.Tenants[i]) != f.Get(&id.Tenants[i]) {
				t.Errorf("tenant %s %s: worker %d, inline %d", wd.Tenants[i].Name, f.Series, f.Get(&wd.Tenants[i]), f.Get(&id.Tenants[i]))
			}
		}
	}
	if got := id.Tenants[1].Jobs; got != 1 {
		t.Errorf("tenant t1 jobs moved by %d, want 1", got)
	}
	if got := stageCount(after2, "execute") - stageCount(mid, "execute"); got != 2 {
		t.Errorf("execute stage observed %d times over two inline serves, want 2", got)
	}
	if stageCount(after2, "queue_wait") != stageCount(mid, "queue_wait") {
		t.Error("an inline serve observed queue_wait")
	}
}

// TestServeResidentDeclines covers every decline: no entry (which must
// create none and leave the CLOCK ring as it was), an unarmed entry, a
// stale entry, a geometry mismatch, changed content, iteration bounds
// moved under unchanged subscripts, a decision switch and a closed
// engine. A decline moves no counter. A worker's resident serve gives
// the caller's bits.
func TestServeResidentDeclines(t *testing.T) {
	l := simpLoop("decline", 512, 2048, 4, 9)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1, MaxCacheEntries: 2})
	defer e.Close()

	cold := simpLoop("cold", 512, 256, 16, 10)
	base := e.Stats()
	if _, ok := serveResident(e, cold, 0); ok {
		t.Fatal("served a loop the engine never saw")
	}
	if s := e.Stats(); s.CacheEntries != base.CacheEntries || s.CacheEvictions != 0 {
		t.Fatalf("a miss created an entry or evicted: entries %d, evictions %d", s.CacheEntries, s.CacheEvictions)
	}
	if _, ok := serveResident(e, l, 0); ok {
		t.Fatal("served before the entry existed")
	}
	if _, err := e.Submit(l); err != nil {
		t.Fatal(err)
	}
	if _, ok := serveResident(e, l, 0); ok {
		t.Fatal("served an entry with no resident")
	}
	for n := 1; n < 3; n++ { // the rest of seedResident's submissions
		if res, err := e.Submit(l); err != nil || res.Why == residentWhy {
			t.Fatalf("arming submission %d: %s, %v", n, res.Why, err)
		}
	}
	if res, ok := serveResident(e, l, 0); !ok {
		t.Fatal("armed entry declined")
	} else {
		assertMatches(t, l.Name, res.Values, want)
	}

	// bounds moves one reference from iteration 2 to iteration 3: the
	// subscripts, the segment hashes and the fingerprint (which samples
	// every eighth offset of 2048 iterations) stay, the answer does not.
	bounds := l.Clone()
	offs, _ := bounds.Flat()
	offs[3]--
	if bounds.Fingerprint() != l.Fingerprint() || bitDiffs(bounds.RunSequential(), want) == 0 {
		t.Fatal("the moved bound must keep the fingerprint and change the answer")
	}
	entry, _ := e.lookup(l, l.Fingerprint())
	set := func(f func()) {
		entry.mu.Lock()
		f()
		entry.mu.Unlock()
	}
	base = e.Stats()
	for _, c := range []struct {
		name       string
		on, off    func()
		submission *trace.Loop
	}{
		{"stale", func() { entry.stale = true }, func() { entry.stale = false }, l},
		{"geometry", func() {}, func() {}, simpLoop("decline", 512, 200, 16, 9)},
		{"content", func() {}, func() {}, mutateKeepingFingerprint(t, l, reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs), 3, func(s int) bool { return s != 2 })},
		{"bounds", func() {}, func() {}, bounds},
		{"switch", entry.newDecision, func() {}, l},
	} {
		set(c.on)
		if e.ServeResident(c.submission, l.Fingerprint(), 0, func(Result) { t.Errorf("%s: use called", c.name) }) {
			t.Errorf("%s: served", c.name)
		}
		set(c.off)
	}
	if s := e.Stats(); s.Jobs != base.Jobs || s.SegsReused != base.SegsReused {
		t.Fatalf("declines moved counters: jobs %d→%d", base.Jobs, s.Jobs)
	}
	if res, err := e.Submit(bounds); err != nil || res.Why == residentWhy || bitDiffs(res.Values, bounds.RunSequential()) > 0 {
		t.Fatalf("moved bounds: %s, %v; want a direct run with its own bits", res.Why, err)
	}

	// After the switch the next two runs re-arm; then the worker's
	// resident serve and the caller's give the same bits.
	for n := 0; n < 2; n++ {
		if _, err := e.Submit(l); err != nil {
			t.Fatal(err)
		}
	}
	h, err := e.SubmitFingerprinted(l, l.Fingerprint(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	inline, err := e.Submit(l)
	if err != nil || res.Why != residentWhy || inline.Why != residentWhy || inline.QueueWait != 0 {
		t.Fatalf("worker %s, caller %s (queue wait %v), %v; want two resident serves", res.Why, inline.Why, inline.QueueWait, err)
	}
	if d := bitDiffs(inline.Values, res.Values); d > 0 {
		t.Fatalf("inline serve differs from the worker's resident serve in %d of %d elements", d, len(res.Values))
	}
	e.Close()
	if _, ok := serveResident(e, l, 0); ok {
		t.Fatal("served after Close")
	}
}

// TestServeResidentNeedsNoWorker: with the only worker parked, an armed
// loop is still answered — the serve runs on the caller, with no queue.
func TestServeResidentNeedsNoWorker(t *testing.T) {
	l := simpLoop("noworker", 512, 256, 16, 11)
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, l.RunSequential())
	release, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, ok := serveResident(e, l, 0); !ok {
		t.Fatal("resident serve needed the parked worker")
	}
}

// TestServeResidentRaces hammers one armed entry from inline readers
// while workers re-arm it with a same-fingerprint variant, a decision
// switch drops the resident and a one-entry cache evicts the entry under
// another pattern. Every answer must be its own loop's RunSequential
// bits, never the variant's. Then a reader that holds a resident while a
// worker re-arms the entry with the variant must still read its own
// loop's bits. Run under -race.
func TestServeResidentRaces(t *testing.T) {
	ms := workloads.NewSharedSubrangeStream(2, 0, 0.125, 5).Members
	a, b := ms[0], ms[1]
	other := simpLoop("other", 512, 256, 16, 12)
	want := map[*trace.Loop][]float64{a: a.RunSequential(), b: b.RunSequential(), other: other.RunSequential()}
	e := mustNew(t, Config{Workers: 2, MaxCacheEntries: 1, Platform: core.DefaultPlatform(4)})
	defer e.Close()
	seedResident(t, e, a, want[a])

	check := func(l *trace.Loop, got []float64) {
		if d := bitDiffs(got, want[l]); d > 0 {
			t.Errorf("%s: %d of %d elements differ from RunSequential", l.Name, d, len(got))
		}
	}
	const rounds = 300
	var wg sync.WaitGroup
	var done atomic.Bool
	served := make([]int, 3)
	for g := range served {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				l := a
				if g == 2 && i%2 == 1 {
					l = b
				}
				if res, ok := serveResident(e, l, 0); ok {
					served[g]++
					check(l, res.Values)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < rounds/4; i++ {
			// Three in a row: a loop's content comes back and arms.
			l := []*trace.Loop{a, a, b, other}[rng.Intn(4)]
			for k := 0; k < 3; k++ {
				res, err := e.Submit(l)
				if err != nil {
					t.Error(err)
					return
				}
				check(l, res.Values)
			}
			if i%16 == 5 {
				entry, _ := e.lookup(a, a.Fingerprint())
				entry.mu.Lock()
				entry.newDecision()
				entry.mu.Unlock()
			}
		}
	}()
	wg.Wait()
	t.Logf("inline serves per reader: %v", served)

	// Three submissions of a arm it whatever the storm left behind.
	for n := 0; n < 3; n++ {
		res, err := e.Submit(a)
		if err != nil {
			t.Fatal(err)
		}
		check(a, res.Values)
	}
	held := e.ServeResident(a, a.Fingerprint(), 0, func(res Result) {
		for n := 0; n < 2; n++ { // b records its hashes, then comes back and arms
			h, err := e.SubmitFingerprinted(b, b.Fingerprint(), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			check(b, h.Wait().Values)
		}
		if !residentFor(e, b).answers(b) {
			t.Fatal("b did not re-arm the entry")
		}
		check(a, res.Values)
	})
	if !held {
		t.Fatal("the armed loop was declined")
	}
}

// TestSessionApplyOnCaller: Apply runs on the calling goroutine — it
// completes with the only worker parked — reads RunSequential's bits
// over the mirrored loop, and moves the session counters by the
// iterations the batch landed in (computed) and the rest (reused), plus
// one job and batch on the session's tenant, in the caller shard; the
// one-shot counters stay put.
func TestSessionApplyOnCaller(t *testing.T) {
	const procs = 4
	e := mustNew(t, Config{Workers: 1, Platform: core.DefaultPlatform(procs), Tenants: []TenantConfig{{Name: "t1"}}})
	defer e.Close()
	l := sessionLoop(80, 300, 21)
	s, _, err := e.OpenSessionTenant(l, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	mirror := l.Clone()
	offs, refs := mirror.Flat()
	release, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 6; step++ {
		ds := sessionDeltas(rng, l, 4)
		before := e.Stats()
		callerJobs := e.caller.c.SessionJobs
		res, err := s.Apply(ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		iters := map[int]bool{}
		for _, d := range ds {
			it, _ := slices.BinarySearch(offs[1:], d.Pos+1)
			iters[it] = true
			refs[d.Pos] = d.Ref
		}
		want := mirror.RunSequential()
		for i := range want {
			if math.Float64bits(res.Values[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %d element %d: session %v, RunSequential %v", step, i, res.Values[i], want[i])
			}
		}
		d := e.Stats().Sub(before)
		computed, reused := uint64(len(iters)), uint64(l.NumIters()-len(iters))
		if d.SessionJobs != 1 || d.SessionSegsComputed != computed || d.SessionSegsReused != reused {
			t.Fatalf("step %d: session counters moved %d/%d/%d, want 1/%d/%d", step,
				d.SessionJobs, d.SessionSegsComputed, d.SessionSegsReused, computed, reused)
		}
		if d.Jobs != 0 || d.Batches != 0 || d.SessionOpens != 0 {
			t.Fatalf("step %d: apply moved one-shot counters: %+v", step, d)
		}
		if d.Tenants[1].Jobs != 1 || d.Tenants[0].Jobs != 0 {
			t.Fatalf("step %d: tenant rows moved %+v", step, d.Tenants)
		}
		if e.caller.c.SessionJobs != callerJobs+1 {
			t.Fatalf("step %d: apply not counted in the caller shard", step)
		}
	}
	if gen := s.Gen(); gen != 7 {
		t.Fatalf("generation %d after six applies, want 7", gen)
	}
}

// TestServeResidentWarmAllocs: a warm resident serve on the caller —
// the cache probe, the checks and the accounting — allocates nothing.
func TestServeResidentWarmAllocs(t *testing.T) {
	l := simpLoop("allocs", 512, 256, 16, 14)
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, l.RunSequential())
	fp := l.Fingerprint()
	use := func(Result) {}
	allocs := testing.AllocsPerRun(100, func() {
		if !e.ServeResident(l, fp, 0, use) {
			t.Fatal("the armed loop was declined")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per warm resident serve, want 0", allocs)
	}
}
