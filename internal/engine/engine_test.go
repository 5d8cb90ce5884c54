package engine

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// mustNew builds an engine or fails the test.
func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mixedLoops returns the shared mixed workload stream (small scale, three
// regimes are enough for the tests) plus their sequential references.
func mixedLoops() ([]*trace.Loop, [][]float64) {
	loops := workloads.MixedSet(0.2)[:3]
	refs := make([][]float64, len(loops))
	for i, l := range loops {
		refs[i] = l.RunSequential()
	}
	return loops, refs
}

func assertMatches(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: result length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		diff := math.Abs(got[i] - want[i])
		tol := 1e-9 * (1 + math.Abs(want[i]))
		if diff > tol {
			t.Fatalf("%s: element %d = %g, want %g (diff %g)", name, i, got[i], want[i], diff)
		}
	}
}

func TestEngineMatchesSequential(t *testing.T) {
	loops, refs := mixedLoops()
	e := mustNew(t, Config{Workers: 2})
	defer e.Close()
	for i, l := range loops {
		for rep := 0; rep < 3; rep++ {
			res, err := e.Submit(l)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			if res.Scheme == "" {
				t.Fatalf("%s: empty scheme name", l.Name)
			}
			assertMatches(t, l.Name, res.Values, refs[i])
		}
	}
}

// TestEngineConcurrentSubmit hammers the engine from many goroutines (run
// under -race in CI) and checks every result against the sequential
// reference.
func TestEngineConcurrentSubmit(t *testing.T) {
	loops, refs := mixedLoops()
	e := mustNew(t, Config{Workers: 4, Platform: core.DefaultPlatform(4)})
	defer e.Close()

	const goroutines = 8
	const perGoroutine = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perGoroutine)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, 0)
			for n := 0; n < perGoroutine; n++ {
				i := (g + n) % len(loops)
				res, err := e.SubmitInto(loops[i], dst)
				if err != nil {
					errs <- err.Error()
					return
				}
				dst = res.Values
				want := refs[i]
				for j := range want {
					if math.Abs(res.Values[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
						errs <- loops[i].Name + ": result mismatch"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	s := e.Stats()
	if s.Jobs != goroutines*perGoroutine {
		t.Errorf("jobs = %d, want %d", s.Jobs, goroutines*perGoroutine)
	}
	// Three distinct patterns: at most 3 misses (the once-guard serializes
	// concurrent first sights of the same signature), the rest hits.
	if s.CacheMisses > uint64(len(loops)) {
		t.Errorf("cache misses = %d, want <= %d", s.CacheMisses, len(loops))
	}
	if s.CacheHits+s.CacheMisses != s.Jobs {
		t.Errorf("hits %d + misses %d != jobs %d", s.CacheHits, s.CacheMisses, s.Jobs)
	}
}

func TestEngineDecisionCacheHitsOnRepeatedPattern(t *testing.T) {
	loops, _ := mixedLoops()
	l := loops[0]
	// The test pins the direct path's decision-cache accounting (one
	// scheme, exact hit counts); residency would answer a repeated
	// pattern from its resident partway through.
	e := mustNew(t, Config{Workers: 2, DisableSimplify: true})
	defer e.Close()

	for n := 0; n < 5; n++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if wantHit := n > 0; res.CacheHit != wantHit {
			t.Errorf("submission %d: CacheHit = %v, want %v", n, res.CacheHit, wantHit)
		}
	}
	s := e.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 4 {
		t.Errorf("misses/hits = %d/%d, want 1/4", s.CacheMisses, s.CacheHits)
	}
	if s.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1", s.CacheEntries)
	}
	if len(s.Schemes) != 1 {
		t.Errorf("scheme counts = %v, want a single scheme", s.Schemes)
	}

	// A structurally different loop must miss.
	res, err := e.Submit(loops[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("distinct pattern reported a cache hit")
	}
}

func TestEngineSubmitAfterClose(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	e.Close()
	e.Close() // idempotent
	loops, _ := mixedLoops()
	if _, err := e.Submit(loops[0]); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestEngineRejectsInvalidLoops(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	if _, err := e.Submit(nil); err == nil {
		t.Error("nil loop accepted")
	}
	bad := &trace.Loop{Name: "bad"}
	if _, err := e.Submit(bad); err == nil {
		t.Error("zero-element loop accepted")
	}
}

// TestCloseResolvesOutstandingHandles is the server-shutdown contract:
// SubmitAsync handles outstanding when Close runs must all resolve — the
// queue drains, no waiter blocks forever. Submitters hammer a small queue
// (so batch sends block on backpressure mid-Close) while Close races
// them; every handle that was ever returned must Wait successfully with a
// correct result.
func TestCloseResolvesOutstandingHandles(t *testing.T) {
	loops, refs := mixedLoops()
	for round := 0; round < 4; round++ {
		e := mustNew(t, Config{
			Workers:    1,
			Platform:   core.DefaultPlatform(2),
			QueueDepth: 1, // maximum backpressure: senders block in SubmitAsync
		})
		const submitters = 6
		// A handle travels with the index of the loop it answers, in one
		// send: two channels would let concurrent submitters interleave
		// their sends and pair a handle with another loop's reference.
		type pending struct {
			h   *Handle
			idx int
		}
		var wg sync.WaitGroup
		// Roomy enough that submitters never block on the test itself
		// before Close lands (QueueDepth 1 throttles them long before).
		pendCh := make(chan pending, 1024)
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					idx := (g + i) % len(loops)
					h, err := e.SubmitAsync(loops[idx])
					if err != nil {
						if err != ErrClosed {
							t.Errorf("submit: %v", err)
						}
						return
					}
					pendCh <- pending{h, idx}
				}
			}(g)
		}
		// Let submissions pile up, then slam the door while senders are
		// mid-flight.
		for len(pendCh) < submitters {
			runtime.Gosched()
		}
		e.Close()
		wg.Wait()
		close(pendCh)

		var all []pending
		for p := range pendCh {
			all = append(all, p)
		}
		if len(all) == 0 {
			t.Fatal("no handles issued before Close")
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, p := range all {
				res := p.h.Wait()
				assertMatches(t, loops[p.idx].Name, res.Values, refs[p.idx])
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: %d handles leaked blocked waiters after Close", round, len(all))
		}
	}
}
