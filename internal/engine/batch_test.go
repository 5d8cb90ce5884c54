package engine

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := []Config{
		{Workers: -1},
		{Platform: core.Platform{Procs: 65}},
		{Platform: core.Platform{Procs: -2}},
		{SampleStride: -1},
		{QueueDepth: -3},
		{MaxCacheEntries: -1},
		{CacheShards: -4},
		{MaxBatch: -2},
	}
	for i, cfg := range bad {
		if e, err := New(cfg); err == nil {
			e.Close()
			t.Errorf("config %d: invalid config accepted", i)
		}
	}
	// CacheShards rounds up to a power of two.
	e := mustNew(t, Config{Workers: 1, CacheShards: 3})
	defer e.Close()
	if got := e.cfg.CacheShards; got != 4 {
		t.Errorf("CacheShards = %d, want 4", got)
	}
}

// TestSubmitIntoAliasesDst verifies the unbatched path returns the
// caller's array when its capacity suffices.
func TestSubmitIntoAliasesDst(t *testing.T) {
	loops, refs := mixedLoops()
	e := mustNew(t, Config{Workers: 1, MaxBatch: 1})
	defer e.Close()
	for i, l := range loops {
		dst := make([]float64, l.NumElems)
		res, err := e.SubmitInto(l, dst)
		if err != nil {
			t.Fatal(err)
		}
		if &res.Values[0] != &dst[0] {
			t.Errorf("%s: result does not alias dst", l.Name)
		}
		assertMatches(t, l.Name, res.Values, refs[i])
	}
}

// TestRunBatchAliasesAndMatches drives the fused execution path directly
// (no queue timing involved): every member's result must alias its own
// destination when capacity suffices and match the sequential reference.
func TestRunBatchAliasesAndMatches(t *testing.T) {
	loops, refs := mixedLoops()
	l, want := loops[0], refs[0]
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	w := &workerCtx{
		ex:    &reduction.Exec{Pool: e.pool},
		stats: &e.statShards[0],
	}

	const members = 4
	fp := l.Fingerprint()
	b := &batch{fp: fp}
	jobs := make([]*job, members)
	dsts := make([][]float64, members)
	for i := range jobs {
		dsts[i] = make([]float64, l.NumElems)
		jobs[i] = &job{loop: l, dst: dsts[i], done: make(chan Result, 1)}
		if i == 0 {
			b.jobs = []*job{jobs[0]}
		} else if !b.tryJoin(jobs[i], e.cfg.MaxBatch) {
			t.Fatalf("member %d failed to join open batch", i)
		}
	}
	e.runBatch(w, b)
	for i, j := range jobs {
		res := <-j.done
		if res.BatchSize != members {
			t.Errorf("member %d: BatchSize = %d, want %d", i, res.BatchSize, members)
		}
		if &res.Values[0] != &dsts[i][0] {
			t.Errorf("member %d: result does not alias its dst", i)
		}
		if i > 0 && !res.CacheHit {
			t.Errorf("member %d: fused member not reported as cache hit", i)
		}
		assertMatches(t, l.Name, res.Values, want)
	}
	// A sealed batch refuses late joiners.
	if b.tryJoin(&job{loop: l, done: make(chan Result, 1)}, e.cfg.MaxBatch) {
		t.Error("sealed batch accepted a join")
	}
	s := e.Stats()
	if s.Jobs != members || s.Batches != 1 || s.Coalesced != members-1 {
		t.Errorf("stats jobs/batches/coalesced = %d/%d/%d, want %d/1/%d",
			s.Jobs, s.Batches, s.Coalesced, members, members-1)
	}
	if s.BatchOccupancy[members] != 1 {
		t.Errorf("occupancy[%d] = %d, want 1", members, s.BatchOccupancy[members])
	}
}

// TestEngineCoalescesUnderBacklog parks the single worker (Engine.Hold),
// then submits a burst of identical hot jobs: while the worker is held,
// the hot jobs must fuse into one queued batch, and every fused result
// must alias its own destination and match the reference.
func TestEngineCoalescesUnderBacklog(t *testing.T) {
	hot := workloads.Generate("hot", workloads.PatternSpec{
		Dim: 2000, SPPercent: 50, CHR: 0.5, MO: 2, Locality: 0.5, Work: 4, Seed: 8,
	}, 1)
	want := hot.RunSequential()

	e := mustNew(t, Config{Workers: 1, QueueDepth: 4})
	defer e.Close()
	release, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	const burst = 6
	handles := make([]*Handle, burst)
	dsts := make([][]float64, burst)
	for i := range handles {
		dsts[i] = make([]float64, hot.NumElems)
		if handles[i], err = e.SubmitAsyncInto(hot, dsts[i]); err != nil {
			t.Fatal(err)
		}
	}
	release()
	for i, h := range handles {
		res := h.Wait()
		if &res.Values[0] != &dsts[i][0] {
			t.Errorf("hot %d: result does not alias its dst", i)
		}
		assertMatches(t, "hot", res.Values, want)
	}
	s := e.Stats()
	if s.Jobs != burst || s.Batches != 1 || s.Coalesced != burst-1 {
		t.Errorf("jobs/batches/coalesced = %d/%d/%d, want %d/1/%d: the held burst must run as one batch",
			s.Jobs, s.Batches, s.Coalesced, burst, burst-1)
	}
	var occJobs uint64
	for k, v := range s.BatchOccupancy {
		occJobs += uint64(k) * v
	}
	if occJobs != s.Jobs {
		t.Errorf("occupancy histogram accounts %d jobs, want %d", occJobs, s.Jobs)
	}
}

// TestEngineFusedDenseLinkedList holds the worker, then submits a burst
// of one loop the engine runs as ll on its dense path (MixedSet's
// moderate regime at the default 8 processors), so the burst fuses into
// one batch whose range-parallel merge writes every member from 8
// goroutines (exercised under -race in CI). Every member must carry the
// bits a direct ll run gives.
func TestEngineFusedDenseLinkedList(t *testing.T) {
	l := workloads.MixedSet(0.25)[5]
	const procs = 8
	if _, refs := l.Flat(); len(refs)/procs < l.NumElems/8 {
		t.Fatalf("%s is sparse at procs %d; the test needs ll's dense path", l.Name, procs)
	}
	want := reduction.LinkedList{}.Run(l, procs)

	e := mustNew(t, Config{Workers: 1, DisableSimplify: true})
	defer e.Close()
	release, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	const burst = 4
	handles := make([]*Handle, burst)
	for i := range handles {
		if handles[i], err = e.SubmitAsyncInto(l, make([]float64, l.NumElems)); err != nil {
			t.Fatal(err)
		}
	}
	release()
	for i, h := range handles {
		res := h.Wait()
		if res.Scheme != "ll" || res.BatchSize != burst {
			t.Fatalf("member %d: scheme %q batch %d, want ll in one batch of %d", i, res.Scheme, res.BatchSize, burst)
		}
		for k := range want {
			if math.Float64bits(res.Values[k]) != math.Float64bits(want[k]) {
				t.Fatalf("member %d: element %d = %g, direct ll %g", i, k, res.Values[k], want[k])
			}
		}
	}
}

// TestSubmitRacingClose hammers Submit from many goroutines while Close
// runs (exercised under -race in CI): every call must either return a
// correct result or ErrClosed, never anything else.
func TestSubmitRacingClose(t *testing.T) {
	loops, refs := mixedLoops()
	e := mustNew(t, Config{Workers: 2})
	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*64)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				i := (g + n) % len(loops)
				res, err := e.Submit(loops[i])
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- "unexpected error: " + err.Error()
					}
					return
				}
				assertClose(errs, loops[i].Name, res.Values, refs[i])
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	e.Close()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if _, err := e.Submit(loops[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close Submit error = %v, want ErrClosed", err)
	}
}

// assertClose reports a mismatch through the error channel (test helpers
// must not call t.Fatal off the test goroutine).
func assertClose(errs chan<- string, name string, got, want []float64) {
	if len(got) != len(want) {
		errs <- name + ": result length mismatch"
		return
	}
	for i := range want {
		diff := got[i] - want[i]
		if diff < 0 {
			diff = -diff
		}
		mag := want[i]
		if mag < 0 {
			mag = -mag
		}
		if diff > 1e-9*(1+mag) {
			errs <- name + ": result mismatch"
			return
		}
	}
}

// TestCacheEvictionCLOCK runs a deterministic reference string against a
// 2-entry single-shard cache: CLOCK must keep the repeatedly-hit pattern
// resident and evict the cold ones.
func TestCacheEvictionCLOCK(t *testing.T) {
	loops, _ := mixedLoops()
	A, B, C := loops[0], loops[1], loops[2]
	e := mustNew(t, Config{Workers: 1, CacheShards: 1, MaxCacheEntries: 2, MaxBatch: 1})
	defer e.Close()
	for _, l := range []*trace.Loop{A, B, A, C, A, B} {
		if _, err := e.Submit(l); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	// A B A C A B: A misses once then always hits (its referenced bit
	// saves it from both sweeps); B and C evict each other.
	if s.CacheMisses != 4 || s.CacheHits != 2 {
		t.Errorf("misses/hits = %d/%d, want 4/2", s.CacheMisses, s.CacheHits)
	}
	if s.CacheEvictions != 2 {
		t.Errorf("evictions = %d, want 2", s.CacheEvictions)
	}
	if s.CacheEntries != 2 {
		t.Errorf("entries = %d, want 2", s.CacheEntries)
	}
}

// TestSubmitAsyncPipelining pipelines a stream of submissions from one
// client before collecting any result.
func TestSubmitAsyncPipelining(t *testing.T) {
	loops, refs := mixedLoops()
	e := mustNew(t, Config{Workers: 2})
	defer e.Close()
	const n = 24
	handles := make([]*Handle, n)
	var err error
	for i := range handles {
		if handles[i], err = e.SubmitAsync(loops[i%len(loops)]); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handles {
		res := h.Wait()
		assertMatches(t, loops[i%len(loops)].Name, res.Values, refs[i%len(loops)])
		if res.BatchSize < 1 {
			t.Errorf("handle %d: BatchSize = %d", i, res.BatchSize)
		}
		// Wait is idempotent.
		if again := h.Wait(); &again.Values[0] != &res.Values[0] {
			t.Errorf("handle %d: second Wait returned a different result", i)
		}
	}
	s := e.Stats()
	if s.Jobs != n {
		t.Errorf("jobs = %d, want %d", s.Jobs, n)
	}
}
