package server_test

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// startServer boots an engine and a server on a loopback listener via
// the shared testkit and returns the stack; teardown is registered with
// t.Cleanup.
func startServer(t *testing.T, ecfg engine.Config, scfg server.Config) (*engine.Engine, *server.Server, string, func()) {
	t.Helper()
	d := testkit.StartDaemon(t, ecfg, scfg)
	return d.Eng, d.Srv, d.Addr, d.Close
}

func assertMatches(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: result length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: element %d = %g, want %g", name, i, got[i], want[i])
		}
	}
}

// TestServeMatchesSequential drives the full network path — encode,
// server decode, intern, engine, result encode, client decode — and
// checks every result against the sequential reference.
func TestServeMatchesSequential(t *testing.T) {
	_, _, addr, teardown := startServer(t, engine.Config{}, server.Config{})
	defer teardown()

	cl, err := client.Dial(addr, client.Config{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	h, err := cl.Hello()
	if err != nil || h.Version != wire.ProtoVersion || h.Procs != 4 {
		t.Fatalf("hello %+v, err %v", h, err)
	}

	loops := workloads.MixedSet(0.2)[:3]
	var dst []float64
	for rep := 0; rep < 3; rep++ {
		for _, l := range loops {
			res, err := cl.SubmitInto(l, dst)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			if res.Scheme == "" || res.BatchSize < 1 {
				t.Fatalf("%s: bad result metadata %+v", l.Name, res)
			}
			assertMatches(t, l.Name, res.Values, l.RunSequential())
			dst = res.Values
		}
	}

	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != uint64(3*len(loops)) {
		t.Fatalf("server engine saw %d jobs, want %d", stats.Jobs, 3*len(loops))
	}
}

// TestPipelinedOutOfOrder keeps many jobs in flight on one connection;
// every handle must resolve with the right loop's result even though the
// server answers in completion order.
func TestPipelinedOutOfOrder(t *testing.T) {
	_, _, addr, teardown := startServer(t, engine.Config{Workers: 4}, server.Config{})
	defer teardown()

	cl, err := client.Dial(addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	loops := workloads.MixedSet(0.2)[:3]
	refs := make([][]float64, len(loops))
	for i, l := range loops {
		refs[i] = l.RunSequential()
	}
	const inflight = 24
	handles := make([]*client.Handle, inflight)
	for i := range handles {
		h, err := cl.SubmitAsync(loops[i%len(loops)])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		assertMatches(t, loops[i%len(loops)].Name, res.Values, refs[i%len(loops)])
	}
}

// TestAdmissionControlBusy floods one connection far past its in-flight
// budget: the overflow must come back as explicit BUSY rejections, not
// queue without bound, and every admitted job must still succeed.
func TestAdmissionControlBusy(t *testing.T) {
	eng, srv, addr, teardown := startServer(t,
		engine.Config{Workers: 1},
		server.Config{MaxInflightPerConn: 2})
	defer teardown()

	cl, err := client.Dial(addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	l := workloads.MixedSet(0.5)[0]
	want := l.RunSequential()
	// The single worker stays parked while the flood goes out, so the two
	// admitted jobs still hold the budget when the rest arrive: overflow
	// does not depend on the worker being slower than the wire.
	release, err := eng.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	const flood = 64
	handles := make([]*client.Handle, flood)
	for i := range handles {
		h, err := cl.SubmitAsync(l)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Busy < flood-2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server rejected %d of the %d jobs over budget", srv.Stats().Busy, flood-2)
		}
	}
	release()
	busy, ok := 0, 0
	for _, h := range handles {
		res, err := h.Wait()
		switch {
		case err == nil:
			assertMatches(t, l.Name, res.Values, want)
			ok++
		case errors.Is(err, client.ErrBusy):
			busy++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if busy == 0 {
		t.Fatalf("no BUSY rejections across %d pipelined jobs with budget 2 (ok=%d)", flood, ok)
	}
	if ok == 0 {
		t.Fatal("admission control rejected everything")
	}
	if s := srv.Stats(); s.Busy != uint64(busy) {
		t.Fatalf("server counted %d busy, client saw %d", s.Busy, busy)
	}
}

// TestInterningSurvivesNetworkHop: a hot pattern submitted repeatedly
// over the wire decodes to distinct objects, but interning maps every
// repeat onto one canonical loop, as if one process had submitted them —
// and each queued job still runs as its own execution.
func TestInterningSurvivesNetworkHop(t *testing.T) {
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
	if _, err := cl.Submit(l); err != nil { // warm decision cache
		t.Fatal(err)
	}
	warm := eng.Stats()

	// The single worker stays parked until the server has admitted the
	// whole burst (as in TestPatternHandleBurstInterns), so the whole
	// burst is in the queue at once.
	release, err := eng.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	const jobs = 32
	handles := make([]*client.Handle, jobs)
	for i := range handles {
		h, err := cl.SubmitAsync(l)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Inflight() < jobs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server admitted %d of %d burst jobs", srv.Inflight(), jobs)
		}
	}
	release()
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		assertMatches(t, l.Name, res.Values, want)
		if res.BatchSize != 1 {
			t.Fatalf("job %d: BatchSize %d, want 1", i, res.BatchSize)
		}
	}
	s := eng.Stats()
	if got := s.Jobs - warm.Jobs; got != jobs {
		t.Fatalf("engine executed %d jobs, want %d", got, jobs)
	}
	if s.Batches-warm.Batches != jobs || s.Coalesced != warm.Coalesced {
		t.Fatalf("%d executions, %d coalesced for %d jobs; want one execution per job",
			s.Batches-warm.Batches, s.Coalesced-warm.Coalesced, jobs)
	}
	if ss := srv.Stats(); ss.InternHits < jobs {
		t.Fatalf("intern hits %d, want >= %d (every repeat should hit)", ss.InternHits, jobs)
	}
}

// TestGracefulShutdownResolvesInflight submits a burst, shuts the server
// down mid-flight, and requires every handle to resolve — result or
// error, never a hang — and the engine to remain usable afterwards.
func TestGracefulShutdownResolvesInflight(t *testing.T) {
	eng, err := engine.New(engine.Config{Workers: 1, Platform: core.DefaultPlatform(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	cl, err := client.Dial(ln.Addr().String(), client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	l := workloads.MixedSet(0.3)[0]
	want := l.RunSequential()
	const jobs = 16
	handles := make([]*client.Handle, jobs)
	for i := range handles {
		h, err := cl.SubmitAsync(l)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(10 * time.Second) }()

	resolved := make(chan struct{})
	go func() {
		defer close(resolved)
		for i, h := range handles {
			res, err := h.Wait()
			if err == nil {
				assertMatches(t, l.Name, res.Values, want)
			} else if !errors.Is(err, client.ErrConnLost) {
				t.Errorf("job %d: unexpected error %v", i, err)
			}
		}
	}()
	select {
	case <-resolved:
	case <-time.After(20 * time.Second):
		t.Fatal("handles did not resolve within 20s of Shutdown")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != server.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}

	// The engine is borrowed, not owned: it must still work in-process.
	res, err := eng.Submit(l)
	if err != nil {
		t.Fatalf("engine unusable after server shutdown: %v", err)
	}
	assertMatches(t, l.Name, res.Values, want)

	// And new network submissions must fail cleanly, not hang.
	if _, err := cl.Submit(l); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
}

// TestProtocolViolationsClose drives raw bytes at the server: a bad
// preamble closes silently; garbage after a valid preamble draws a fatal
// connection-scoped ERROR before close.
func TestProtocolViolationsClose(t *testing.T) {
	_, _, addr, teardown := startServer(t, engine.Config{}, server.Config{})
	defer teardown()

	// Bad magic.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("GET / HTTP/1.1\r\n"))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if n, _ := nc.Read(buf); n != 0 {
		t.Fatalf("server answered a bad preamble with %d bytes", n)
	}
	nc.Close()

	// Valid preamble, corrupt frame.
	nc, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WritePreamble(nc); err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte{5, 0, 0, 0, 99, 1, 2, 3, 4}) // unknown frame type 99
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := wire.NewReader(nc, 1<<20)
	f, err := r.Next() // HELLO
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeHello(); err != nil {
		t.Fatal(err)
	}
	f, err = r.Next()
	if err != nil || f.Type != wire.FrameError || f.JobID != 0 {
		t.Fatalf("expected fatal ERROR frame, got %+v err %v", f, err)
	}
}

// TestInternTable checks the canonicalization rules directly: same
// pattern converges on one pointer, different patterns do not, and
// residency stays bounded under churn.
func TestInternTable(t *testing.T) {
	mk := func(seed int64) *trace.Loop {
		l := trace.NewLoop("intern", 64)
		for i := 0; i < 8; i++ {
			l.AddIter(int32((int(seed)*7 + i*13) % 64))
		}
		return l
	}
	// Exercised through the server-facing behavior: repeated submissions
	// of equal patterns over separate connections must converge.
	_, srv, addr, teardown := startServer(t, engine.Config{}, server.Config{})
	defer teardown()
	cl1, err := client.Dial(addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := client.Dial(addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	l := mk(1)
	if _, err := cl1.Submit(l); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Submit(l.Clone()); err != nil { // distinct object, same pattern
		t.Fatal(err)
	}
	if _, err := cl1.Submit(mk(2)); err != nil {
		t.Fatal(err)
	}
	s := srv.Stats()
	if s.InternHits != 1 {
		t.Fatalf("intern hits %d, want 1 (cross-connection repeat)", s.InternHits)
	}
	if s.InternedLoops != 2 {
		t.Fatalf("interned loops %d, want 2", s.InternedLoops)
	}
}

// TestConcurrentClients hammers one server from several client pools at
// once (run under -race in CI) and verifies a sample of results.
func TestConcurrentClients(t *testing.T) {
	_, _, addr, teardown := startServer(t, engine.Config{Workers: 4}, server.Config{})
	defer teardown()

	loops := workloads.MixedSet(0.2)[:3]
	refs := make([][]float64, len(loops))
	for i, l := range loops {
		refs[i] = l.RunSequential()
	}
	const clients = 4
	const perClient = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Config{Conns: 2})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			var dst []float64
			for i := 0; i < perClient; i++ {
				l := loops[(g+i)%len(loops)]
				res, err := cl.SubmitInto(l, dst)
				if err != nil {
					errs <- err
					return
				}
				want := refs[(g+i)%len(loops)]
				for k := range want {
					if math.Abs(res.Values[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
						errs <- errors.New(l.Name + ": result diverged")
						return
					}
				}
				dst = res.Values
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
