package engine

import (
	"math"
	"math/rand"
	"slices"
	"sync"
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

// readers returns the entry's shared-claim count.
func readers(e *Engine, l *trace.Loop) int {
	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	defer entry.mu.Unlock()
	return entry.segClaim
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
// job, batch, cache hit, scheme, occupancy, simplified batch, reused
// segments, the tenant's row and one execute observation — and it lands
// in the caller shard, which Stats sums. Its Values carry the worker's
// bits and alias the resident total.
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

	if inline.Scheme != worker.Scheme || inline.Why != worker.Why || inline.CacheHit != worker.CacheHit || inline.BatchSize != worker.BatchSize {
		t.Errorf("inline %s/%q/%v/%d, worker %s/%q/%v/%d", inline.Scheme, inline.Why, inline.CacheHit, inline.BatchSize,
			worker.Scheme, worker.Why, worker.CacheHit, worker.BatchSize)
	}
	for i := range worker.Values {
		if math.Float64bits(inline.Values[i]) != math.Float64bits(worker.Values[i]) {
			t.Fatalf("element %d: inline %v, worker %v", i, inline.Values[i], worker.Values[i])
		}
	}
	e.ServeResident(l, l.Fingerprint(), 1, func(res Result) {
		entry, _ := e.lookup(l, l.Fingerprint())
		if total, _ := entry.segs.Resident(l); &res.Values[0] != &total[0] {
			t.Error("inline Values do not alias the resident total")
		}
		if readers(e, l) != 1 {
			t.Errorf("reader count %d inside use, want 1", readers(e, l))
		}
	})
	after2 := e.Stats()
	if readers(e, l) != 0 {
		t.Fatalf("reader count %d after the serves, want 0", readers(e, l))
	}
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
	if wd.Schemes["simplify"] != 1 || id.Schemes["simplify"] != 1 || len(id.Schemes) != 1 {
		t.Errorf("scheme mix: worker %v, inline %v", wd.Schemes, id.Schemes)
	}
	if wd.BatchOccupancy[1] != 1 || id.BatchOccupancy[1] != 1 {
		t.Errorf("occupancy[1]: worker %d, inline %d", wd.BatchOccupancy[1], id.BatchOccupancy[1])
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
// stale entry, a worker's exclusive claim, a decision-generation
// mismatch, a geometry mismatch, changed content and a closed engine. A
// decline moves no counter. While a reader holds the shared claim, a
// worker's resident serve declines to the direct path instead.
func TestServeResidentDeclines(t *testing.T) {
	l := simpLoop("decline", 512, 256, 16, 9)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1, CacheShards: 1, MaxCacheEntries: 2})
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
		t.Fatal("served an entry with no segment state")
	}
	for n := 1; n < segSeedAfter+1; n++ { // the rest of seedResident's submissions
		if res, err := e.Submit(l); err != nil || res.Why == residentWhy {
			t.Fatalf("seeding submission %d: %s, %v", n, res.Why, err)
		}
	}
	if res, ok := serveResident(e, l, 0); !ok {
		t.Fatal("armed entry declined")
	} else {
		assertMatches(t, l.Name, res.Values, want)
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
		{"segBusy", func() { entry.segClaim = segBusy }, func() { entry.segClaim = 0 }, l},
		{"segGen", func() { entry.segGen++ }, func() { entry.segGen-- }, l},
		{"geometry", func() {}, func() {}, simpLoop("decline", 512, 200, 16, 9)},
		{"content", func() {}, func() {}, mutateKeepingFingerprint(t, l, reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs), 3, func(s int) bool { return s != 2 })},
	} {
		set(c.on)
		if e.ServeResident(c.submission, l.Fingerprint(), 0, func(Result) { t.Errorf("%s: use called", c.name) }) {
			t.Errorf("%s: served", c.name)
		}
		set(c.off)
	}
	if readers(e, l) != 0 {
		t.Fatalf("declines left %d readers", readers(e, l))
	}
	if s := e.Stats(); s.Jobs != base.Jobs || s.SimplifiedBatches != base.SimplifiedBatches {
		t.Fatalf("declines moved counters: jobs %d→%d", base.Jobs, s.Jobs)
	}

	// A worker that finds a reader declines its claim: the job runs
	// direct. A caller's submission shares the reader's claim instead and
	// is answered inline, with the bits the worker's resident serve gives
	// once the reader has left.
	submitQueued := func() (Result, error) {
		h, err := e.SubmitFingerprinted(l, l.Fingerprint(), nil, 0)
		if err != nil {
			return Result{}, err
		}
		return h.Wait(), nil
	}
	set(func() { entry.segClaim++ })
	if res, err := submitQueued(); err != nil || res.Scheme == "simplify" {
		t.Fatalf("worker claimed the cache under a reader: %s, %v", res.Scheme, err)
	}
	inline, err := e.Submit(l)
	if err != nil || inline.Why != residentWhy || inline.QueueWait != 0 {
		t.Fatalf("caller not served inline under a reader: %s, queue wait %v, %v", inline.Why, inline.QueueWait, err)
	}
	set(func() { entry.segClaim-- })
	res, err := submitQueued()
	if err != nil || res.Why != residentWhy {
		t.Fatalf("worker did not serve resident once the reader left: %s, %v", res.Why, err)
	}
	if d := bitDiffs(inline.Values, res.Values); d > 0 {
		t.Fatalf("inline serve differs from the worker's resident serve in %d of %d elements", d, len(res.Values))
	}
	if _, ok := serveResident(e, l, 0); !ok {
		t.Fatal("armed entry declined")
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
// while workers refresh its slots with a same-fingerprint variant, a
// decision switch bumps decGen and a one-entry cache evicts the entry
// under another pattern. Every answer must be its own loop's (never the
// variant's), and the reader count must return to zero. Run under -race.
func TestServeResidentRaces(t *testing.T) {
	ms := workloads.NewSharedSubrangeStream(2, 0, 0.125, 5).Members
	a, b := ms[0], ms[1]
	other := simpLoop("other", 512, 256, 16, 12)
	want := map[*trace.Loop][]float64{a: a.RunSequential(), b: b.RunSequential(), other: other.RunSequential()}
	e := mustNew(t, Config{Workers: 2, CacheShards: 1, MaxCacheEntries: 1, Platform: core.DefaultPlatform(4)})
	defer e.Close()
	seedResident(t, e, a, want[a])

	check := func(l *trace.Loop, got []float64) {
		for i, w := range want[l] {
			if math.Abs(got[i]-w) > 1e-9*(1+math.Abs(w)) {
				t.Errorf("%s: element %d = %g, want %g", l.Name, i, got[i], w)
				return
			}
		}
	}
	const rounds = 300
	var wg sync.WaitGroup
	served := make([]int, 3)
	for g := range served {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
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
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < rounds/4; i++ {
			l := []*trace.Loop{a, a, b, other}[rng.Intn(4)]
			res, err := e.Submit(l)
			if err != nil {
				t.Error(err)
				return
			}
			check(l, res.Values)
			if i%16 == 5 {
				entry, _ := e.lookup(a, a.Fingerprint())
				entry.mu.Lock()
				entry.decGen++
				entry.mu.Unlock()
			}
		}
	}()
	wg.Wait()

	entry, _ := e.lookup(a, a.Fingerprint())
	entry.mu.Lock()
	n := entry.segClaim
	entry.mu.Unlock()
	if n != 0 {
		t.Fatalf("reader count %d after the storm, want 0", n)
	}
	t.Logf("inline serves per reader: %v", served)
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
		if d.Tenants[1].Jobs != 1 || d.Tenants[1].Batches != 1 || d.Tenants[0].Jobs != 0 {
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
