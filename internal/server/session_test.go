package server_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/reduction"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// mkSessLoop builds a deterministic random add-reduction for the session
// tests.
func mkSessLoop(elems, iters int, seed int64) *trace.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop("net-sess", elems)
	l.WorkPerIter = 8
	for i := 0; i < iters; i++ {
		l.AddIter(int32(rng.Intn(elems)), int32(rng.Intn(elems)))
	}
	return l
}

// mkDeltas draws n sorted distinct-position reference updates, the shape
// the wire encoding requires.
func mkDeltas(rng *rand.Rand, l *trace.Loop, n int) []reduction.RefDelta {
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

// applyToMirror replays a delta batch onto the client's mirror loop.
func applyToMirror(m *trace.Loop, ds []reduction.RefDelta) {
	_, refs := m.Flat()
	for _, d := range ds {
		refs[d.Pos] = d.Ref
	}
}

// TestSessionStreamsOverWire drives the full streaming path — open,
// deltas, rolling reads, close — and holds each rolling result to the
// bit-for-bit oracle: a fresh session opened over an identically mutated
// mirror loop (same segment association, so any divergence is
// incremental-state rot crossing the wire).
func TestSessionStreamsOverWire(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 2}, server.Config{})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	rng := rand.New(rand.NewSource(42))
	l := mkSessLoop(64, 240, 1)
	mirror := l.Clone()
	sess, res := testkit.StartSession(t, cl, l)
	if res.SessionGen != 1 {
		t.Fatalf("open generation %d, want 1", res.SessionGen)
	}
	assertMatches(t, "open", res.Values, mirror.RunSequential())

	const steps = 6
	var dst []float64
	for step := 0; step < steps; step++ {
		ds := mkDeltas(rng, mirror, 4)
		res, err := sess.SubmitDeltaInto(ds, dst)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if want := uint64(step + 2); res.SessionGen != want {
			t.Fatalf("step %d: generation %d, want %d", step, res.SessionGen, want)
		}
		applyToMirror(mirror, ds)
		fresh, fres, err := cl.OpenSession(mirror)
		if err != nil {
			t.Fatalf("step %d: fresh open: %v", step, err)
		}
		for i := range fres.Values {
			if math.Float64bits(fres.Values[i]) != math.Float64bits(res.Values[i]) {
				t.Fatalf("step %d elem %d: rolling %g != fresh %g", step, i, res.Values[i], fres.Values[i])
			}
		}
		if err := fresh.Close(); err != nil {
			t.Fatalf("step %d: close fresh: %v", step, err)
		}
		dst = res.Values
	}

	// The session counters must survive the STATS round trip (keyed
	// rows) and the server must still be holding exactly the one open
	// session.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SessionOpens != steps+1 {
		t.Fatalf("SessionOpens %d, want %d", stats.SessionOpens, steps+1)
	}
	if stats.SessionJobs != steps {
		t.Fatalf("SessionJobs %d, want %d", stats.SessionJobs, steps)
	}
	if stats.SessionSegsComputed == 0 || stats.SessionSegsReused == 0 {
		t.Fatalf("segment split computed=%d reused=%d, want both nonzero",
			stats.SessionSegsComputed, stats.SessionSegsReused)
	}
	ss := d.Srv.Stats()
	if ss.Sessions != 1 {
		t.Fatalf("server residency %d, want 1", ss.Sessions)
	}
	if ss.SessionOpens != steps+1 {
		t.Fatalf("server SessionOpens %d, want %d", ss.SessionOpens, steps+1)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := sess.SubmitDelta(nil); !errors.Is(err, client.ErrSessionGone) {
		t.Fatalf("delta after close: %v, want ErrSessionGone", err)
	}
	if got := d.Srv.Stats().Sessions; got != 0 {
		t.Fatalf("server residency after close %d, want 0", got)
	}
}

// TestSessionTTLExpiry pins the idle-expiry contract: a delta arriving
// past the TTL draws the typed session-gone error — never a stale sum —
// and the expiry counts as an eviction.
func TestSessionTTLExpiry(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 1},
		server.Config{SessionTTL: 30 * time.Millisecond})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	l := mkSessLoop(16, 32, 2)
	sess, _ := testkit.StartSession(t, cl, l)
	time.Sleep(120 * time.Millisecond)
	if _, err := sess.SubmitDelta(nil); !errors.Is(err, client.ErrSessionGone) {
		t.Fatalf("delta past TTL: %v, want ErrSessionGone", err)
	}
	ss := d.Srv.Stats()
	if ss.Sessions != 0 || ss.SessionEvictions != 1 {
		t.Fatalf("after expiry: residency %d evictions %d, want 0 and 1", ss.Sessions, ss.SessionEvictions)
	}
	// The session is re-openable immediately; the client recovery story
	// is open-and-replay.
	sess2, res := testkit.StartSession(t, cl, l)
	assertMatches(t, "reopen", res.Values, l.RunSequential())
	if _, err := sess2.SubmitDelta(nil); err != nil {
		t.Fatalf("delta on reopened session: %v", err)
	}
}

// TestSessionClockEviction fills the residency budget and opens one
// more: CLOCK must evict the coldest session, whose owner then gets the
// typed error, while the survivors keep streaming.
func TestSessionClockEviction(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 1},
		server.Config{MaxSessions: 2})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	rng := rand.New(rand.NewSource(3))
	la, lb, lc := mkSessLoop(16, 32, 3), mkSessLoop(16, 32, 4), mkSessLoop(16, 32, 5)
	sa, _ := testkit.StartSession(t, cl, la)
	sb, _ := testkit.StartSession(t, cl, lb)
	// Touch B so the CLOCK hand, which clears second-chance bits in open
	// order, lands its eviction on A.
	if _, err := sb.SubmitDelta(mkDeltas(rng, lb, 2)); err != nil {
		t.Fatal(err)
	}
	sc, _ := testkit.StartSession(t, cl, lc)

	if _, err := sa.SubmitDelta(nil); !errors.Is(err, client.ErrSessionGone) {
		t.Fatalf("delta on evicted session: %v, want ErrSessionGone", err)
	}
	if _, err := sb.SubmitDelta(mkDeltas(rng, lb, 2)); err != nil {
		t.Fatalf("survivor B: %v", err)
	}
	if _, err := sc.SubmitDelta(mkDeltas(rng, lc, 2)); err != nil {
		t.Fatalf("survivor C: %v", err)
	}
	ss := d.Srv.Stats()
	if ss.Sessions != 2 || ss.SessionEvictions != 1 {
		t.Fatalf("residency %d evictions %d, want 2 and 1", ss.Sessions, ss.SessionEvictions)
	}
}

// TestSessionByteBudgetBusy pins the third admission gate: a loop whose
// estimated resident footprint cannot ever fit draws BUSY(BusySession)
// before any state is built.
func TestSessionByteBudgetBusy(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 1},
		server.Config{MaxSessionBytes: 1})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	_, _, err := cl.OpenSession(mkSessLoop(16, 32, 6))
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("open past byte budget: %v, want ErrBusy", err)
	}
	if !strings.Contains(err.Error(), "session budget exhausted") {
		t.Fatalf("busy error %q does not carry the session budget code", err)
	}
	if got := d.Srv.Stats().SessionOpens; got != 0 {
		t.Fatalf("rejected open counted as admitted (%d)", got)
	}
}

// TestOversizedOpenEvictsNobody pins admission order: an OPEN_SESSION
// whose estimated footprint alone exceeds MaxSessionBytes must be refused
// before the eviction sweep runs. It used to evict every resident session
// of every connection looking for room that could not exist, and only
// then answer BUSY.
func TestOversizedOpenEvictsNobody(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 1},
		server.Config{MaxSessionBytes: 64 << 10})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	rng := rand.New(rand.NewSource(11))
	la, lb := mkSessLoop(16, 32, 12), mkSessLoop(16, 32, 13)
	sa, _ := testkit.StartSession(t, cl, la)
	sb, _ := testkit.StartSession(t, cl, lb)

	// At least two 16 Ki-element float64 vectors: four times the budget.
	if _, _, err := cl.OpenSession(mkSessLoop(16<<10, 32, 14)); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("oversized open: %v, want ErrBusy", err)
	}
	for name, s := range map[string]struct {
		sess *client.Session
		l    *trace.Loop
	}{"A": {sa, la}, "B": {sb, lb}} {
		if _, err := s.sess.SubmitDelta(mkDeltas(rng, s.l, 2)); err != nil {
			t.Fatalf("session %s after the refused open: %v", name, err)
		}
	}
	if ss := d.Srv.Stats(); ss.Sessions != 2 || ss.SessionEvictions != 0 {
		t.Fatalf("residency %d evictions %d, want 2 and 0", ss.Sessions, ss.SessionEvictions)
	}
}

// TestSessionUnsupportedOnGateway pins the capability seam: the
// gateway's routed dispatcher cannot pin resident state to one backend,
// so OPEN_SESSION draws a job-scoped refusal (not session-gone, not a
// dropped connection) and one-shot submissions keep working.
func TestSessionUnsupportedOnGateway(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 1}, server.Config{})
	g := testkit.StartGateway(t, cluster.Config{}, server.Config{}, d.Addr)
	cl := testkit.DialPool(t, g.Addr, client.Config{Conns: 1})

	l := mkSessLoop(16, 32, 7)
	_, _, err := cl.OpenSession(l)
	if err == nil || errors.Is(err, client.ErrSessionGone) || !strings.Contains(err.Error(), "sessions unsupported") {
		t.Fatalf("gateway open: %v, want job-scoped unsupported error", err)
	}
	res, err := cl.Submit(l)
	if err != nil {
		t.Fatalf("one-shot after refused open: %v", err)
	}
	assertMatches(t, "gateway submit", res.Values, l.RunSequential())
}

// TestSessionEvictionRace hammers deltas against constant eviction
// pressure (run under -race in CI): with residency capped at one, a
// churning opener keeps evicting the streamer's session. Every delta
// must resolve as a correct rolling result or the typed session-gone
// error — never anything else, and never a sum that ignores an applied
// batch — and the streamer recovers by re-opening from its mirror.
func TestSessionEvictionRace(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 2},
		server.Config{MaxSessions: 1})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	// The streamer opens before the churner starts: with one resident
	// slot, an initial open racing the churner can be refused busy, which
	// is admission working, not the eviction path under test.
	rng := rand.New(rand.NewSource(9))
	mirror := mkSessLoop(48, 160, 10)
	sess, _, err := cl.OpenSession(mirror)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		churn := mkSessLoop(8, 16, 8)
		for i := 0; i < 40; i++ {
			s, _, err := cl.OpenSession(churn)
			if err != nil && !errors.Is(err, client.ErrBusy) {
				t.Errorf("churn open %d: %v", i, err)
				return
			}
			if err == nil && i%2 == 0 {
				s.Close()
			}
		}
	}()

	reopens := 0
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		ds := mkDeltas(rng, mirror, 3)
		res, err := sess.SubmitDelta(ds)
		switch {
		case err == nil:
			applyToMirror(mirror, ds)
			assertMatches(t, "rolling", res.Values, mirror.RunSequential())
		case errors.Is(err, client.ErrSessionGone):
			// The batch was not applied; recover by re-opening over the
			// mirror, whose open result must reflect exactly the batches
			// acknowledged so far.
			fresh, fres, err := cl.OpenSession(mirror)
			if err != nil {
				if errors.Is(err, client.ErrBusy) {
					continue
				}
				t.Fatalf("reopen: %v", err)
			}
			sess = fresh
			reopens++
			assertMatches(t, "reopen", fres.Values, mirror.RunSequential())
		case errors.Is(err, client.ErrBusy):
			// Admission pressure from the churner; back off and retry.
		default:
			t.Fatalf("unexpected delta outcome: %v", err)
		}
	}
	wg.Wait()
	if reopens == 0 {
		t.Log("note: no eviction hit the streamer this run (timing-dependent)")
	}
}

// TestSessionBudgetAdmitsLoopPlusResult pins what a session costs the
// byte budget: its loop copy and result vector. At the served session
// shape (1 024 elements, 16 384 iterations of 8 references) that is
// 598 020 bytes; the session state it replaced — a reference index and
// 64 segment partials per element beside the loop — was estimated at
// 1 844 228. A budget sized for two sessions of the old estimate now
// holds six resident, at least 2.5 times as many, and the seventh open
// evicts one.
func TestSessionBudgetAdmitsLoopPlusResult(t *testing.T) {
	const oldEstimate, perSession, sized = 1844228, 598020, 2
	d := testkit.StartDaemon(t, engine.Config{Workers: 1},
		server.Config{MaxSessionBytes: sized * oldEstimate})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	want := sized * oldEstimate / perSession
	if 2*want < 5*sized {
		t.Fatalf("a budget of %d old sessions admits %d, fewer than 2.5 times as many", sized, want)
	}
	for i := 0; i <= want; i++ {
		ds := workloads.NewDeltaStream(1, 16, 0.5, int64(i+1))
		if got := reduction.DeltaStateBytes(ds.Base); got != perSession {
			t.Fatalf("session %d estimated at %d bytes, want %d", i, got, perSession)
		}
		_, res := testkit.StartSession(t, cl, ds.Base)
		assertBits(t, fmt.Sprintf("session %d open", i), res.Values, ds.Base.RunSequential())
		resident, evicted := i+1, uint64(0)
		if i == want {
			resident, evicted = want, 1
		}
		if ss := d.Srv.Stats(); ss.Sessions != resident || ss.SessionEvictions != evicted {
			t.Fatalf("after open %d: %d resident, %d evicted; want %d and %d", i, ss.Sessions, ss.SessionEvictions, resident, evicted)
		}
	}
}

// TestOpenSessionAllocatesOneLoop: an OPEN_SESSION decodes straight into
// the loop its session adopts, so one served open allocates the
// session's resident state about once — below 1.5 × DeltaStateBytes at
// session_remote's shape (a decode into scratch, a clone of it and the
// session's own copy made it three loops). The frames are written and
// read raw, so the client side allocates nothing while the count runs.
func TestOpenSessionAllocatesOneLoop(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 1}, server.Config{})
	l := workloads.NewDeltaStream(0, 16, 0.5, 3).Base
	rc := dialRaw(t, d.Addr)
	open := func(jobID, sid uint64) {
		rc.write(wire.AppendOpenSession(nil, jobID, sid, l))
		if f := rc.next(); f.Type != wire.FrameResult || f.JobID != jobID {
			msg, _ := f.DecodeError()
			t.Fatalf("open %d answered %v %q", jobID, f.Type, msg)
		}
	}
	// Warm up: the connection's read buffer grows to the frame, and the
	// pools hold a destination array and a RESULT buffer.
	open(1, 1)
	rc.write(wire.AppendCloseSession(nil, 2, 1))
	rc.next()

	frame := wire.AppendOpenSession(nil, 3, 2, l)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rc.write(frame)
	f := rc.next()
	runtime.ReadMemStats(&after)
	if f.Type != wire.FrameResult {
		t.Fatalf("open answered %v", f.Type)
	}
	got, est := after.TotalAlloc-before.TotalAlloc, reduction.DeltaStateBytes(l)
	if limit := uint64(est) * 3 / 2; got > limit {
		t.Fatalf("one open allocated %d B, want below %d (1.5 × DeltaStateBytes %d)", got, limit, est)
	}
	t.Logf("one open allocated %d B; DeltaStateBytes %d", got, est)
}
