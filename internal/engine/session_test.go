package engine

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// sessionLoop builds a deterministic random loop for the session tests.
func sessionLoop(elems, iters int, seed int64) *trace.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop("sess", elems)
	l.WorkPerIter = 10
	for i := 0; i < iters; i++ {
		l.AddIter(int32(rng.Intn(elems)), int32(rng.Intn(elems)))
	}
	return l
}

// sessionDeltas draws n sorted distinct-position updates.
func sessionDeltas(rng *rand.Rand, l *trace.Loop, n int) []reduction.RefDelta {
	seen := map[int32]bool{}
	var ds []reduction.RefDelta
	for len(ds) < n {
		p := int32(rng.Intn(l.TotalRefs()))
		if seen[p] {
			continue
		}
		seen[p] = true
		ds = append(ds, reduction.RefDelta{Pos: p, Ref: int32(rng.Intn(l.NumElems))})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
	return ds
}

// TestSessionMatchesFreshOpen is the engine-level metamorphic check: the
// rolling result after streaming deltas must be bit-identical to
// RunSequential over an identically mutated mirror loop, and so to
// opening a fresh session over it — any divergence is incremental-state
// rot, exactly what the session path must never produce.
func TestSessionMatchesFreshOpen(t *testing.T) {
	e := mustNew(t, Config{Workers: 2, Platform: core.DefaultPlatform(4)})
	defer e.Close()
	rng := rand.New(rand.NewSource(99))
	l := sessionLoop(80, 300, 1)
	mirror := l.Clone()

	s, res, err := e.OpenSession(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionGen != 1 {
		t.Fatalf("open generation %d, want 1", res.SessionGen)
	}
	if res.Scheme != "session" {
		t.Fatalf("open scheme %q, want session", res.Scheme)
	}
	dst := make([]float64, l.NumElems)
	for step := 0; step < 8; step++ {
		ds := sessionDeltas(rng, l, 5)
		res, err = s.Apply(ds, dst)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if want := uint64(step + 2); res.SessionGen != want {
			t.Fatalf("step %d: generation %d, want %d", step, res.SessionGen, want)
		}
		_, refs := mirror.Flat()
		for _, d := range ds {
			refs[d.Pos] = d.Ref
		}
		fresh, fres, err := e.OpenSession(mirror, nil)
		if err != nil {
			t.Fatalf("step %d: fresh open: %v", step, err)
		}
		want := mirror.RunSequential()
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(res.Values[i]) {
				t.Fatalf("step %d elem %d: session %g != RunSequential %g", step, i, res.Values[i], want[i])
			}
			if math.Float64bits(fres.Values[i]) != math.Float64bits(res.Values[i]) {
				t.Fatalf("step %d elem %d: session %g != fresh %g", step, i, res.Values[i], fres.Values[i])
			}
		}
		fresh.Close()
	}

	st := e.Stats()
	if st.SessionOpens != 9 { // 1 + one fresh mirror open per step
		t.Fatalf("SessionOpens %d, want 9", st.SessionOpens)
	}
	if st.SessionJobs != 8 {
		t.Fatalf("SessionJobs %d, want 8", st.SessionJobs)
	}
	if st.SessionSegsComputed == 0 {
		t.Fatal("no session iterations computed")
	}
	if st.SessionSegsReused == 0 {
		t.Fatal("no session iterations reused — deltas of 5 positions should not touch every iteration")
	}
	// Session work must stay out of the one-shot counters (and thus out
	// of the drift detector's cost stream).
	if st.Jobs != 0 || st.Batches != 0 {
		t.Fatalf("session ops leaked into job counters: jobs %d batches %d", st.Jobs, st.Batches)
	}
}

// TestSessionDstReuse pins the SubmitInto-style destination contract.
func TestSessionDstReuse(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	l := sessionLoop(32, 64, 2)
	dst := make([]float64, 32)
	s, res, err := e.OpenSession(l, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if &res.Values[0] != &dst[0] {
		t.Fatal("open result does not alias the caller's destination")
	}
	res, err = s.Apply(nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &res.Values[0] != &dst[0] {
		t.Fatal("apply result does not alias the caller's destination")
	}
}

// TestSessionClose pins the teardown contract: Apply after Close answers
// ErrSessionClosed (never a stale sum), Close is idempotent, and a
// concurrent Apply either completes or observes the typed error.
func TestSessionClose(t *testing.T) {
	e := mustNew(t, Config{Workers: 2})
	defer e.Close()
	l := sessionLoop(16, 40, 3)
	s, _, err := e.OpenSession(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Apply(nil, nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("apply after close: %v, want ErrSessionClosed", err)
	}
	if s.Bytes() != 0 {
		t.Fatalf("closed session still accounts %d bytes", s.Bytes())
	}

	// Concurrent hammer: appliers race Close; every outcome must be a
	// valid result or ErrSessionClosed. Run under -race in CI.
	s2, _, err := e.OpenSession(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				_, err := s2.Apply(sessionDeltas(rng, l, 2), nil)
				if err != nil && !errors.Is(err, ErrSessionClosed) {
					t.Errorf("concurrent apply: %v", err)
					return
				}
			}
		}(int64(g))
	}
	s2.Close()
	wg.Wait()
}

// TestSessionAfterEngineClose pins ErrClosed once the engine is gone.
func TestSessionAfterEngineClose(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	l := sessionLoop(8, 16, 4)
	s, _, err := e.OpenSession(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := s.Apply(nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after engine close: %v, want ErrClosed", err)
	}
	if _, _, err := e.OpenSession(l, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("open after engine close: %v, want ErrClosed", err)
	}
}

// TestOpenSessionRejectsInvalid covers the argument contract.
func TestOpenSessionRejectsInvalid(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	if _, _, err := e.OpenSession(nil, nil); err == nil {
		t.Fatal("nil loop accepted")
	}
	bad := &trace.Loop{Name: "bad"}
	if _, _, err := e.OpenSession(bad, nil); err == nil {
		t.Fatal("non-positive NumElems accepted")
	}
}
