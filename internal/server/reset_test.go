package server_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/testkit/faultnet"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestSessionsOverResets streams two sessions through a daemon whose
// connections reset once a seeded 400–800 KB has crossed them: both
// opens (about 150 KB each) always fit, and the deltas' RESULTs always
// run a connection out. Deltas are pipelined, eight in flight. On every
// connection, each submitted delta resolves exactly once, to
// RunSequential's bits over the client's mirror or to ErrConnLost, and
// no result follows a loss. After each reset the daemon drops the
// connection's sessions: its session count and the store's resident
// bytes return to 0. The sessions then re-open on a fresh
// connection from their last acknowledged step and must read
// RunSequential's bits. After three resets the client and daemon drain,
// and no goroutine outlives them.
func TestSessionsOverResets(t *testing.T) {
	const resets, inFlight = 3, 8
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := testkit.StartDaemonOn(t, faultnet.ListenResetting(ln, 7, 1500, 400<<10, 800<<10), engine.Config{}, server.Config{})
	cl, err := client.Dial(d.Addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	streams := []*workloads.DeltaStream{
		workloads.NewDeltaStream(2000, 16, 0.05, 1),
		workloads.NewDeltaStream(2000, 16, 0.05, 2),
	}
	mirrors := make([]*trace.Loop, len(streams))
	acked := make([]int, len(streams))
	for i, ds := range streams {
		mirrors[i] = ds.Base.Clone()
	}

	type pending struct {
		i, step int
		h       *client.Handle
	}
	for round := 0; round < resets; round++ {
		sess := make([]*client.Session, len(streams))
		for i := range streams {
			s, res, err := cl.OpenSession(mirrors[i])
			if err != nil {
				t.Fatalf("round %d: open %d at step %d: %v", round, i, acked[i], err)
			}
			sess[i] = s
			assertBits(t, fmt.Sprintf("round %d open %d at step %d", round, i, acked[i]), res.Values, mirrors[i].RunSequential())
		}
		if n := d.Srv.Stats().Sessions; n != len(streams) {
			t.Fatalf("round %d: %d sessions resident, want %d", round, n, len(streams))
		}

		var queue []pending
		lost, resolved, submitted := false, 0, 0
		wait := func(p pending) {
			res, err := p.h.WaitTimeout(10 * time.Second)
			resolved++
			switch {
			case err == nil:
				if lost {
					t.Fatalf("round %d: session %d step %d answered after the connection was lost", round, p.i, p.step)
				}
				if p.step != acked[p.i] {
					t.Fatalf("round %d: session %d answered step %d, want %d", round, p.i, p.step, acked[p.i])
				}
				workloads.ApplyDeltas(mirrors[p.i], streams[p.i].Batches[p.step])
				acked[p.i]++
				assertBits(t, fmt.Sprintf("round %d session %d step %d", round, p.i, p.step), res.Values, mirrors[p.i].RunSequential())
			case errors.Is(err, client.ErrConnLost):
				lost = true
			default:
				t.Fatalf("round %d: session %d step %d: %v, want a result or ErrConnLost", round, p.i, p.step, err)
			}
		}
		next := append([]int(nil), acked...)
	submit:
		for {
			for i, s := range sess {
				if next[i] == len(streams[i].Batches) {
					t.Fatalf("round %d: session %d ran out of batches before the connection reset", round, i)
				}
				h, err := s.SubmitDeltaAsync(streams[i].Batches[next[i]])
				if err != nil {
					if !errors.Is(err, client.ErrSessionGone) {
						t.Fatalf("round %d: submit: %v", round, err)
					}
					break submit
				}
				submitted++
				queue = append(queue, pending{i: i, step: next[i], h: h})
				next[i]++
				if len(queue) == inFlight {
					wait(queue[0])
					queue = queue[1:]
				}
			}
		}
		for _, p := range queue {
			wait(p)
		}
		if !lost || resolved != submitted {
			t.Fatalf("round %d: %d of %d deltas resolved, connection lost: %v", round, resolved, submitted, lost)
		}
		t.Logf("round %d: %d deltas submitted, acknowledged up to steps %v", round, submitted, acked)

		deadline := time.Now().Add(5 * time.Second)
		for {
			resident := d.Srv.SessionBytes()
			n := d.Srv.Stats().Sessions
			if n == 0 && resident == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: after the reset %d sessions and %d resident bytes remain", round, n, resident)
			}
			time.Sleep(time.Millisecond)
		}
	}

	cl.Close()
	d.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the drain, %d before the daemon booted:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// countingListener counts the connections it accepts: past the client's
// first two, each one is a redial after a reset.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestJobsAndHandlesOverResets pipelines one-shot jobs over eight hot
// loops from a two-connection client through a daemon whose connections
// reset once a seeded 150–300 KB has crossed them, until at least three
// resets have happened. A loop's first job on a connection is a full
// SUBMIT and its repeats go by SUBMIT_REF, so resets land on both frames
// and on the RESULTs that carry handles. Every Handle resolves exactly
// once — Wait returns, and returns again the same — to RunSequential's
// bits or ErrConnLost; the daemon's in-flight counts, per connection and
// global, return to 0; and no goroutine outlives the drain.
func TestJobsAndHandlesOverResets(t *testing.T) {
	const resets, inFlight = 3, 16
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: ln}
	d := testkit.StartDaemonOn(t, faultnet.ListenResetting(counted, 11, 1500, 150<<10, 300<<10), engine.Config{}, server.Config{})
	cl, err := client.Dial(d.Addr, client.Config{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	loops := workloads.HotKeySet(8, 0.1)
	want := make([][]float64, len(loops))
	for i, l := range loops {
		want[i] = l.RunSequential()
	}

	type pending struct {
		i int
		h *client.Handle
	}
	var queue []pending
	answered, lost := 0, 0
	wait := func(p pending) {
		res, err := p.h.WaitTimeout(10 * time.Second)
		again, errAgain := p.h.Wait()
		if !errors.Is(errAgain, err) || len(again.Values) != len(res.Values) {
			t.Fatalf("loop %d: a second Wait returned %v, the first %v", p.i, errAgain, err)
		}
		switch {
		case err == nil:
			answered++
			assertBits(t, fmt.Sprintf("job %d (loop %d)", answered+lost, p.i), res.Values, want[p.i])
		case errors.Is(err, client.ErrConnLost):
			lost++
		default:
			t.Fatalf("loop %d: %v, want a result or ErrConnLost", p.i, err)
		}
	}
	for job := 0; counted.n.Load() < 2+resets; job++ {
		if job == 100_000 {
			t.Fatalf("%d jobs and only %d connections accepted", job, counted.n.Load())
		}
		i := job % len(loops)
		h, err := cl.SubmitAsync(loops[i])
		if err != nil {
			if !errors.Is(err, client.ErrConnLost) {
				t.Fatalf("submit: %v", err)
			}
			continue // the slot was dying; the next submission redials
		}
		queue = append(queue, pending{i: i, h: h})
		if len(queue) == inFlight {
			wait(queue[0])
			queue = queue[1:]
		}
	}
	for _, p := range queue {
		wait(p)
	}
	st := d.Srv.Stats()
	if lost == 0 || st.HandleHits == 0 {
		t.Fatalf("%d answered, %d lost, %d handle hits: the resets or the handles never happened", answered, lost, st.HandleHits)
	}
	t.Logf("%d jobs answered, %d lost over %d connections; %d handle hits", answered, lost, counted.n.Load(), st.HandleHits)

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		conns := d.Srv.ConnInflight()
		if d.Srv.Inflight() == 0 && !slices.ContainsFunc(conns, func(n int64) bool { return n != 0 }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in flight after every job resolved: %d global, per connection %v", d.Srv.Inflight(), conns)
		}
	}
	cl.Close()
	d.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the drain, %d before the daemon booted:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
