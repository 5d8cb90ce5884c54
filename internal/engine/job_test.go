package engine

import (
	"errors"
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
		{Platform: core.Platform{Procs: -2}},
		{QueueDepth: -3},
		{MaxCacheEntries: -1},
	}
	for i, cfg := range bad {
		if e, err := New(cfg); err == nil {
			e.Close()
			t.Errorf("config %d: invalid config accepted", i)
		}
	}
}

// TestSixtyFiveProcessorsServe: the engine has no processor ceiling of
// its own (the 64 was lw's owner set, and lw is not served), so a
// 65-processor engine answers every loop of the mixed set with
// RunSequential's bits, first sight and repeats alike.
func TestSixtyFiveProcessorsServe(t *testing.T) {
	e := mustNew(t, Config{Workers: 1, Platform: core.DefaultPlatform(65)})
	defer e.Close()
	for _, l := range workloads.MixedSet(0.2) {
		want := l.RunSequential()
		for n := 0; n < 4; n++ {
			res, err := e.Submit(l)
			if err != nil {
				t.Fatal(err)
			}
			if d := bitDiffs(res.Values, want); d > 0 {
				t.Fatalf("%s submission %d (%s): %d of %d elements differ from RunSequential", l.Name, n, res.Scheme, d, len(want))
			}
		}
	}
}

// TestCacheEntriesBoundedByMax holds MaxCacheEntries to its doc: it
// bounds the decision cache across all shards, and with as many distinct
// fingerprints as it can take, the cache fills to it exactly when the
// derived shard count divides it (1000 takes 8 shards of 125).
func TestCacheEntriesBoundedByMax(t *testing.T) {
	for _, max := range []int{1, 2, 3, 100, 1000, 1024} {
		e := mustNew(t, Config{Workers: 1, MaxCacheEntries: max})
		for fp := uint64(0); fp < uint64(4*max); fp++ {
			e.cache.get(fp)
		}
		if got := e.Stats().CacheEntries; got != max {
			t.Errorf("MaxCacheEntries %d: %d entries cached", max, got)
		}
		e.Close()
	}
}

// TestSubmitIntoAliasesDst verifies the queued path returns the
// caller's array when its capacity suffices.
func TestSubmitIntoAliasesDst(t *testing.T) {
	loops, refs := mixedLoops()
	e := mustNew(t, Config{Workers: 1})
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

// TestRunBatchAliasesAndMatches drives the execution path directly (no
// queue timing involved): the result must alias the job's destination
// when capacity suffices, match the sequential reference, and count as
// one job in one execution.
func TestRunBatchAliasesAndMatches(t *testing.T) {
	loops, refs := mixedLoops()
	l, want := loops[0], refs[0]
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	w := &workerCtx{ex: &reduction.Exec{Pool: e.pool}}

	dst := make([]float64, l.NumElems)
	j := &job{loop: l, fp: l.Fingerprint(), dst: dst, done: make(chan Result, 1)}
	e.runJob(w, j)
	res := <-j.done
	if &res.Values[0] != &dst[0] {
		t.Error("result does not alias its dst")
	}
	assertMatches(t, l.Name, res.Values, want)
	s := e.Stats()
	if s.Jobs != 1 || s.Batches != 1 {
		t.Errorf("stats jobs/batches = %d/%d, want 1/1", s.Jobs, s.Batches)
	}
}

// TestEngineColdBurstRunsPerJob parks the single worker (Engine.Hold),
// then queues a burst of one never-seen loop: released, every job runs
// as its own execution — no job rides another's — and each answer is
// RunSequential's bits in the caller's own destination.
func TestEngineColdBurstRunsPerJob(t *testing.T) {
	cold := workloads.Generate("cold", workloads.PatternSpec{
		Dim: 2000, SPPercent: 50, CHR: 0.5, MO: 2, Locality: 0.5, Work: 4, Seed: 8,
	}, 1)
	want := cold.RunSequential()

	e := mustNew(t, Config{Workers: 1, QueueDepth: 64})
	defer e.Close()
	release, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	const burst = 32
	fp := cold.Fingerprint()
	handles := make([]*Handle, burst)
	dsts := make([][]float64, burst)
	for i := range handles {
		dsts[i] = make([]float64, cold.NumElems)
		if handles[i], err = e.SubmitFingerprinted(cold, fp, dsts[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	release()
	for i, h := range handles {
		res := h.Wait()
		if d := bitDiffs(res.Values, want); d > 0 {
			t.Errorf("job %d (%s) differs from RunSequential in %d of %d elements", i, res.Scheme, d, len(want))
		}
		if &res.Values[0] != &dsts[i][0] {
			t.Errorf("job %d: result does not alias its dst", i)
		}
	}
	s := e.Stats()
	if s.Jobs != burst || s.Batches != s.Jobs {
		t.Errorf("jobs/batches = %d/%d, want %d/%d: every job is its own execution",
			s.Jobs, s.Batches, burst, burst)
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
	e := mustNew(t, Config{Workers: 1, MaxCacheEntries: 2})
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
