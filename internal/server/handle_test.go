package server_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// rawConn is a hand-driven protocol peer: preamble out, server HELLO in,
// then whatever frames the test writes and reads. It is how the handle
// tests replay a stale handle on purpose — something the pooled client is
// built never to do.
type rawConn struct {
	t     *testing.T
	nc    net.Conn
	r     *wire.Reader
	hello wire.Hello
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WritePreamble(nc); err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{t: t, nc: nc, r: wire.NewReader(bufio.NewReader(nc), 0)}
	f := rc.next()
	if rc.hello, err = f.DecodeHello(); err != nil {
		t.Fatal(err)
	}
	return rc
}

func (rc *rawConn) write(b []byte) {
	rc.t.Helper()
	if _, err := rc.nc.Write(b); err != nil {
		rc.t.Fatal(err)
	}
}

// next reads one frame; its body is copied, so it stays valid across
// further reads.
func (rc *rawConn) next() wire.Frame {
	rc.t.Helper()
	f, err := rc.r.Next()
	if err != nil {
		rc.t.Fatalf("reading frame: %v", err)
	}
	f.Body = append([]byte(nil), f.Body...)
	return f
}

// sameShardLoops returns n distinct small patterns whose fingerprints
// share their low four bits, so they land in one shard of any table of
// up to 16 shards (keyed by the low fingerprint bits) and a capacity of
// one or two slots per shard makes them evict one another.
func sameShardLoops(n int) []*trace.Loop {
	var out []*trace.Loop
	for seed := 0; len(out) < n; seed++ {
		l := trace.NewLoop(fmt.Sprintf("shard-%d", seed), 256)
		for i := 0; i < 48; i++ {
			l.AddIter(int32((seed*31+i*7)%256), int32((seed*17+i*i)%256))
		}
		if len(out) == 0 || l.Fingerprint()&15 == out[0].Fingerprint()&15 {
			out = append(out, l)
		}
	}
	return out
}

// TestPatternHandleEvictionFallback thrashes the engine's two-entry
// table, which the server interns into, with four alternating patterns
// pipelined 16 deep: handles go stale as fast as they are learned, so a
// large share of the references is answered "pattern gone" and
// resubmitted in full behind the caller's back. Every job must still
// resolve exactly once with its own pattern's sums, and the admission
// budget must come back to zero — a fallback that leaked or
// double-resolved a job would show as a hang, a connection torn down for
// an unknown job ID, or a stuck in-flight count.
func TestPatternHandleEvictionFallback(t *testing.T) {
	_, srv, addr, teardown := startServer(t,
		engine.Config{Workers: 2, MaxCacheEntries: 2},
		server.Config{})
	defer teardown()
	cl, err := client.Dial(addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	loops := sameShardLoops(4)
	want := make([][]float64, len(loops))
	for i, l := range loops {
		want[i] = l.RunSequential()
	}
	const jobs, depth = 400, 16
	handles := make([]*client.Handle, 0, depth)
	first := 0 // stream index of handles[0]
	drain := func() {
		res, err := handles[0].Wait()
		if err != nil {
			t.Fatalf("job %d: %v", first, err)
		}
		assertMatches(t, loops[first%len(loops)].Name, res.Values, want[first%len(loops)])
		handles = handles[1:]
		first++
	}
	for i := 0; i < jobs; i++ {
		if len(handles) == depth {
			drain()
		}
		h, err := cl.SubmitAsync(loops[i%len(loops)])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	for len(handles) > 0 {
		drain()
	}

	st := srv.Stats()
	if st.HandleGone == 0 {
		t.Fatal("no reference was answered pattern-gone: the shard never thrashed")
	}
	if st.InternEvictions == 0 {
		t.Fatal("handles went missing but no intern eviction was counted: the storm has no visible cause")
	}
	if st.Busy != 0 {
		t.Fatalf("%d submissions rejected: a fallback resubmission overran the connection budget", st.Busy)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight stuck at %d after every job resolved", srv.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
	if es, err := cl.Stats(); err != nil || es.Jobs != jobs {
		t.Fatalf("engine ran %d jobs (err %v), want %d: a job ran twice or not at all", es.Jobs, err, jobs)
	}
}

// TestPatternHandleCollisionNeverAliases drives the protocol by hand with
// two drift-stream variants of one hot key: different patterns, one
// fingerprint. The second variant takes over the first one's intern slot,
// so the first one's (fingerprint, ID) is stale while its fingerprint
// still has a resident entry. Replaying it must draw "pattern gone" —
// never the other variant's sums, which is what a lookup by fingerprint
// alone would return.
func TestPatternHandleCollisionNeverAliases(t *testing.T) {
	_, srv, addr, teardown := startServer(t, engine.Config{}, server.Config{})
	defer teardown()

	ds := workloads.NewDriftStream(1, 2, 1, 1.5, 0.05, 7)
	a, b := ds.Phases[0][0], ds.Phases[1][0]
	fp := a.Fingerprint()
	if b.Fingerprint() != fp || a.EqualPattern(b) {
		t.Fatal("drift variants must share a fingerprint and differ in pattern")
	}
	wantA, wantB := a.RunSequential(), b.RunSequential()

	rc := dialRaw(t, addr)

	// result reads one RESULT for jobID and returns its values and handle.
	result := func(jobID uint64) ([]float64, uint64) {
		t.Helper()
		f := rc.next()
		if f.Type != wire.FrameResult || f.JobID != jobID {
			msg, _ := f.DecodeError()
			t.Fatalf("job %d answered %v (job %d) %q", jobID, f.Type, f.JobID, msg)
		}
		res, handle, err := f.DecodeResultHandle(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Values, handle
	}

	rc.write(wire.AppendSubmit(nil, 1, a))
	vals, hA := result(1)
	assertMatches(t, "a", vals, wantA)
	if hA == 0 {
		t.Fatal("full SUBMIT answered without a handle")
	}
	rc.write(wire.AppendSubmitRef(nil, 2, fp, hA, 0))
	vals, again := result(2)
	assertMatches(t, "a by reference", vals, wantA)
	if again != 0 {
		t.Fatalf("RESULT of a reference repeated the handle (%d)", again)
	}

	rc.write(wire.AppendSubmit(nil, 3, b))
	vals, hB := result(3)
	assertMatches(t, "b", vals, wantB)
	if hB == 0 || hB == hA {
		t.Fatalf("colliding pattern got handle %d (first pattern's: %d)", hB, hA)
	}

	rc.write(wire.AppendSubmitRef(nil, 4, fp, hA, 0))
	f := rc.next()
	msg, err := f.DecodeError()
	if f.Type != wire.FrameError || f.JobID != 4 || err != nil || !strings.HasPrefix(msg, wire.PatternGonePrefix) {
		t.Fatalf("stale handle answered %v (job %d) %q, want a job-scoped pattern-gone ERROR", f.Type, f.JobID, msg)
	}
	rc.write(wire.AppendSubmitRef(nil, 5, fp, hB, 0))
	vals, _ = result(5)
	assertMatches(t, "b by reference", vals, wantB)

	st := srv.Stats()
	if st.HandleHits != 2 || st.HandleGone != 1 {
		t.Fatalf("handle hits %d gone %d, want 2 and 1", st.HandleHits, st.HandleGone)
	}
	if st.InternHits != st.HandleHits {
		t.Fatalf("intern hits %d: every handle hit, and nothing else here, is an intern hit (%d)", st.InternHits, st.HandleHits)
	}

	// The pooled client rides the same collision transparently: alternate
	// the variants and every answer is its own pattern's.
	cl, err := client.Dial(addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 6; i++ {
		l, want := a, wantA
		if i%2 == 1 {
			l, want = b, wantB
		}
		res, err := cl.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		assertMatches(t, l.Name, res.Values, want)
	}
	if got := srv.Stats().HandleGone; got <= st.HandleGone {
		t.Fatal("alternating colliding variants through the client never fell back")
	}
}

// TestPatternHandleBurstInterns pipelines a burst of one brand-new
// pattern: no handle exists until the first RESULT comes back, so the
// whole burst goes out as full SUBMITs, which must still intern onto one
// canonical loop; once the handle is learned the same burst goes out by
// reference. By then the loop is armed, so the second burst is answered
// on the read loop; the handle hits count whichever path answers.
func TestPatternHandleBurstInterns(t *testing.T) {
	eng, srv, addr, teardown := startServer(t,
		engine.Config{Workers: 1, QueueDepth: 64},
		server.Config{})
	defer teardown()
	cl, err := client.Dial(addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	l := workloads.MixedSet(0.3)[0]
	want := l.RunSequential()
	const jobs = 16

	burst := func(name string, hold bool) {
		t.Helper()
		before := eng.Stats()
		handles := make([]*client.Handle, jobs)
		release := func() {}
		if hold {
			// The single worker stays parked until the server has
			// admitted the whole burst, so every job of it is in flight at
			// once, whatever the worker's speed.
			if release, err = eng.Hold(); err != nil {
				t.Fatal(err)
			}
			defer release()
		}
		for i := range handles {
			if handles[i], err = cl.SubmitAsync(l); err != nil {
				t.Fatal(err)
			}
		}
		if hold {
			// The read loop dispatches inline, so once the last job is
			// admitted every earlier one is queued too.
			for deadline := time.Now().Add(10 * time.Second); srv.Inflight() < jobs; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: server admitted %d of %d burst jobs", name, srv.Inflight(), jobs)
				}
			}
			release()
		}
		for i, h := range handles {
			res, err := h.Wait()
			if err != nil {
				t.Fatalf("%s job %d: %v", name, i, err)
			}
			assertMatches(t, l.Name, res.Values, want)
		}
		after := eng.Stats()
		if got := after.Jobs - before.Jobs; got != jobs {
			t.Fatalf("%s: engine answered %d jobs, want %d", name, got, jobs)
		}
		if got := after.Batches - before.Batches; got != jobs {
			t.Fatalf("%s: %d executions for %d jobs, want one each", name, got, jobs)
		}
	}

	burst("unlearned", true)
	if st := srv.Stats(); st.HandleHits != 0 || st.HandleGone != 0 {
		t.Fatalf("a never-answered pattern went out by reference: %+v", st)
	}
	if st := srv.Stats(); st.InternedLoops != 1 || st.InternHits != jobs-1 {
		t.Fatalf("unlearned burst: %d interned loops, %d intern hits; want 1 and %d", st.InternedLoops, st.InternHits, jobs-1)
	}
	burst("learned", false)
	// Only the 16 repeats can be references; all of them must be.
	if st := srv.Stats(); st.HandleHits != jobs || st.HandleGone != 0 {
		t.Fatalf("learned burst: handle hits %d gone %d, want %d and 0", st.HandleHits, st.HandleGone, jobs)
	}
}
