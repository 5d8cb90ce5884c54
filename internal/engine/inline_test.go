package engine

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// serveResident runs ServeResident under l's own fingerprint.
func serveResident(e *Engine, l *trace.Loop, tenant int) (Result, bool) {
	return e.ServeResident(l, l.Fingerprint(), tenant)
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
// counters as one resident job — one job, batch and cache hit, one
// "simplify" scheme, every segment reused, one job on its tenant's row
// and one execute observation, no queue_wait (no worker ran). Its
// Values carry the bits of a direct execution of the same loop and
// alias the resident's vector.
func TestServeResidentStatsParity(t *testing.T) {
	l := simpLoop("parity", 512, 256, 16, 7)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1, Tenants: []TenantConfig{{Name: "t1"}}})
	defer e.Close()
	seedResident(t, e, l, want)

	direct, err := submitDirect(e, l)
	if err != nil {
		t.Fatal(err)
	}
	mid := e.Stats()
	inline, ok := serveResident(e, l, 1)
	if !ok {
		t.Fatal("ServeResident declined an armed, unchanged loop")
	}
	after := e.Stats()

	if inline.Scheme != residentScheme || inline.Why != residentWhy || !inline.CacheHit {
		t.Errorf("inline %s/%q/%v, want a resident cache hit", inline.Scheme, inline.Why, inline.CacheHit)
	}
	if d := bitDiffs(inline.Values, direct.Values); d > 0 {
		t.Fatalf("inline serve differs from the direct execution in %d elements", d)
	}
	if &inline.Values[0] != &residentFor(e, l).values[0] {
		t.Error("inline Values do not alias the resident's vector")
	}
	serveResident(e, l, 1)
	after2 := e.Stats()
	if got := after2.Sub(mid).Jobs; got != 2 {
		t.Errorf("two inline serves counted %d jobs, want 2", got)
	}

	id := after.Sub(mid)
	wantMoved := map[string]uint64{"engine_jobs": 1, "batches": 1, "cache_hits": 1,
		"segments_reused": uint64(len(residentFor(e, l).hashes))}
	for _, f := range StatsFields {
		if f.Kind == obs.Counter && f.Get(&id) != wantMoved[f.Key] {
			t.Errorf("%s: an inline serve moved it by %d, want %d", f.Series, f.Get(&id), wantMoved[f.Key])
		}
	}
	if id.Schemes[residentScheme] != 1 || len(id.Schemes) != 1 {
		t.Errorf("scheme mix moved by %v, want one simplify", id.Schemes)
	}
	for i := range id.Tenants {
		for k, f := range TenantFields {
			if f.Kind != obs.Counter {
				continue
			}
			var w uint64
			if i == 1 && k == tenantJobs {
				w = 1
			}
			if got := f.Get(&id.Tenants[i]); got != w {
				t.Errorf("tenant %s %s moved by %d, want %d", id.Tenants[i].Name, f.Series, got, w)
			}
		}
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
// geometry mismatch, changed content, iteration bounds moved under
// unchanged subscripts and a closed engine. A decline moves no counter.
// A decision switch is no decline: the resident still answers, with
// RunSequential's bits. A queued repeat runs direct with the caller's
// bits. A stale entry still serves (TestServeResidentStaleEntryServes).
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
	base = e.Stats()
	for _, c := range []struct {
		name       string
		submission *trace.Loop
	}{
		{"geometry", simpLoop("decline", 512, 200, 16, 9)},
		{"content", mutateKeepingFingerprint(t, l, reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs), 3, func(s int) bool { return s != 2 })},
		{"bounds", bounds},
	} {
		if res, ok := e.ServeResident(c.submission, l.Fingerprint(), 0); ok || res.Values != nil {
			t.Errorf("%s: served", c.name)
		}
	}
	if s := e.Stats(); s.Jobs != base.Jobs || s.SegsReused != base.SegsReused {
		t.Fatalf("declines moved counters: jobs %d→%d", base.Jobs, s.Jobs)
	}
	if res, err := e.Submit(bounds); err != nil || res.Why == residentWhy || bitDiffs(res.Values, bounds.RunSequential()) > 0 {
		t.Fatalf("moved bounds: %s, %v; want a direct run with its own bits", res.Why, err)
	}

	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	entry.newDecision()
	entry.mu.Unlock()
	if res, ok := serveResident(e, l, 0); !ok || bitDiffs(res.Values, want) > 0 {
		t.Fatalf("switch: served %v; want the resident with RunSequential's bits", ok)
	}

	// A queued repeat runs direct and the caller's resident serve gives
	// its bits.
	res, err := submitDirect(e, l)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := e.Submit(l)
	if err != nil || res.Why == residentWhy || inline.Why != residentWhy || inline.QueueWait != 0 {
		t.Fatalf("queued %s, caller %s (queue wait %v), %v; want a direct run and a resident serve", res.Why, inline.Why, inline.QueueWait, err)
	}
	if d := bitDiffs(inline.Values, res.Values); d > 0 {
		t.Fatalf("inline serve differs from the direct run in %d of %d elements", d, len(res.Values))
	}
	e.Close()
	if _, ok := serveResident(e, l, 0); ok {
		t.Fatal("served after Close")
	}
}

// TestServeResidentStaleEntryServes: a stale mark leaves an armed
// resident answering. With the entry marked stale, the next
// ServeResident and the next Submit answer on the caller with the armed
// bits, and neither re-inspects: Recalibrations, the inspect stage and
// queue_wait stay put. A same-fingerprint loop with changed content then
// runs direct with its own bits, and the entry re-inspects first
// (Recalibrations +1).
func TestServeResidentStaleEntryServes(t *testing.T) {
	l := simpLoop("stale", 512, 256, 16, 15)
	want := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, want)
	entry, _ := e.lookup(l, l.Fingerprint())
	entry.mu.Lock()
	entry.stale = true
	entry.mu.Unlock()

	before := e.Stats()
	inline, ok := serveResident(e, l, 0)
	if !ok {
		t.Fatal("a stale entry's resident declined")
	}
	res, err := e.Submit(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Why != residentWhy || res.QueueWait != 0 {
		t.Fatalf("Submit of a stale entry's armed loop: %s, queue wait %v; want a resident serve on the caller", res.Why, res.QueueWait)
	}
	if d1, d2 := bitDiffs(inline.Values, want), bitDiffs(res.Values, want); d1+d2 > 0 {
		t.Fatalf("stale serves differ from the armed bits in %d (ServeResident) and %d (Submit) elements", d1, d2)
	}
	after := e.Stats()
	if d := after.Sub(before); d.Jobs != 2 || d.Schemes[residentScheme] != 2 || d.Recalibrations != 0 {
		t.Fatalf("two stale serves moved jobs/simplify/recalibrations by %d/%d/%d, want 2/2/0", d.Jobs, d.Schemes[residentScheme], d.Recalibrations)
	}
	for _, st := range []string{"inspect", "queue_wait"} {
		if stageCount(after, st) != stageCount(before, st) {
			t.Errorf("a stale serve observed %s", st)
		}
	}

	m := mutateKeepingFingerprint(t, l, reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs), 16, func(s int) bool { return s != 1 })
	res, err = e.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Why == residentWhy || bitDiffs(res.Values, m.RunSequential()) > 0 {
		t.Fatalf("changed content: %s, %d elements off its RunSequential; want a direct run with its own bits", res.Why, bitDiffs(res.Values, m.RunSequential()))
	}
	if d := e.Stats().Sub(after); d.Recalibrations != 1 {
		t.Fatalf("the direct run after a stale mark re-inspected %d times, want 1", d.Recalibrations)
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
// while workers re-arm it with a same-fingerprint variant, decision
// switches bump the entry under them and a one-entry cache evicts the
// entry under another pattern. Every answer must be its own loop's
// RunSequential bits, never the variant's. Then an answer kept past its
// serve while queued runs of the variant (SubmitFingerprinted, which
// always runs direct) re-arm the entry must still read its own loop's
// bits, and the queued runs theirs. Run under -race.
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
	held, ok := serveResident(e, a, 0)
	if !ok {
		t.Fatal("the armed loop was declined")
	}
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
	check(a, held.Values)
}

// TestSessionApplyOnCaller: Apply runs on the calling goroutine — it
// completes with the only worker parked — reads RunSequential's bits
// over the mirrored loop, and moves the session counters by the
// iterations the batch landed in (computed) and the rest (reused), plus
// one job on the session's tenant; the one-shot counters stay put.
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
	}
	if gen := s.Gen(); gen != 7 {
		t.Fatalf("generation %d after six applies, want 7", gen)
	}
}

// TestSessionOpenOnCaller: an open runs on the calling goroutine — it
// completes with the only worker parked — reads RunSequential's bits,
// and moves SessionOpens by 1, with one job on its tenant and no
// queue_wait observation; the one-shot counters stay put.
func TestSessionOpenOnCaller(t *testing.T) {
	e := mustNew(t, Config{Workers: 1, Tenants: []TenantConfig{{Name: "t1"}}})
	defer e.Close()
	release, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	l := sessionLoop(80, 300, 22)
	before := e.Stats()
	type opened struct {
		s   *Session
		res Result
		err error
	}
	got := make(chan opened, 1)
	go func() {
		s, res, err := e.OpenSessionTenant(l, nil, 1)
		got <- opened{s, res, err}
	}()
	var o opened
	select {
	case o = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("a session open waited for the parked worker")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	defer o.s.Close()
	if d := bitDiffs(o.res.Values, l.RunSequential()); d > 0 || o.res.SessionGen != 1 || o.res.QueueWait != 0 {
		t.Fatalf("open: %d elements off RunSequential, generation %d, queue wait %v", d, o.res.SessionGen, o.res.QueueWait)
	}
	after := e.Stats()
	d := after.Sub(before)
	if d.SessionOpens != 1 {
		t.Fatalf("SessionOpens moved by %d, want 1", d.SessionOpens)
	}
	if d.Tenants[1].Jobs != 1 || d.Tenants[0].Jobs != 0 || d.Jobs != 0 || d.Batches != 0 {
		t.Fatalf("open moved tenant rows %+v, jobs %d, batches %d", d.Tenants, d.Jobs, d.Batches)
	}
	if stageCount(after, "queue_wait") != stageCount(before, "queue_wait") {
		t.Error("an open observed queue_wait")
	}
}

// TestSessionOpenRacesClose: goroutines open sessions while Close runs.
// Each open returns either a session whose Apply works until Close, or
// ErrClosed; SessionOpens counts exactly the opens that returned a
// session, and no goroutine outlives Close. Run under -race.
func TestSessionOpenRacesClose(t *testing.T) {
	base := runtime.NumGoroutine()
	e := mustNew(t, Config{Workers: 2})
	l := sessionLoop(64, 200, 23)
	want := l.RunSequential()
	const openers = 6
	var opens atomic.Uint64
	var closing atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < openers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, res, err := e.OpenSession(l, nil)
				if errors.Is(err, ErrClosed) {
					if !closing.Load() {
						t.Error("open answered ErrClosed before Close")
					}
					return
				}
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				opens.Add(1)
				if d := bitDiffs(res.Values, want); d > 0 {
					t.Errorf("open differs from RunSequential in %d elements", d)
				}
				res, err = s.Apply(nil, nil)
				switch {
				case errors.Is(err, ErrClosed):
					if !closing.Load() {
						t.Error("apply answered ErrClosed before Close")
					}
				case err != nil:
					t.Errorf("apply: %v", err)
				case bitDiffs(res.Values, want) > 0 || res.SessionGen != 2:
					t.Errorf("apply: generation %d, %d elements off RunSequential", res.SessionGen, bitDiffs(res.Values, want))
				}
				s.Close()
			}
		}()
	}
	for opens.Load() < openers {
		runtime.Gosched()
	}
	closing.Store(true)
	e.Close()
	wg.Wait()
	if got, n := e.Stats().SessionOpens, opens.Load(); got != n {
		t.Fatalf("SessionOpens %d, successful opens %d", got, n)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
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
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := e.ServeResident(l, fp, 0); !ok {
			t.Fatal("the armed loop was declined")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per warm resident serve, want 0", allocs)
	}
}
