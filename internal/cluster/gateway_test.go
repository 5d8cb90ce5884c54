package cluster_test

import (
	"bufio"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// killableListener records accepted connections so a test can simulate
// backend death: close the listener and cut every live socket, leaving
// in-flight jobs to fail with ErrConnLost on the gateway side.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *killableListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	for _, c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
}

// backendStack is one spawned reduxd-shaped backend with a killable
// listener for failure injection.
type backendStack struct {
	d    *testkit.Daemon
	eng  *engine.Engine
	ln   *killableListener
	addr string
}

func startBackend(t *testing.T, ecfg engine.Config, scfg server.Config) *backendStack {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &killableListener{Listener: raw}
	d := testkit.StartDaemonOn(t, ln, ecfg, scfg)
	return &backendStack{d: d, eng: d.Eng, ln: ln, addr: d.Addr}
}

// kill simulates backend death: the listener closes, every live socket
// is cut, and the testkit teardown is told not to expect a clean Serve
// exit.
func (b *backendStack) kill() {
	b.d.ExpectUncleanServe()
	b.ln.kill()
}

// startGateway puts a pool over the given backends behind a server
// speaking the wire protocol, and returns the pool plus a connected
// client (both torn down via t.Cleanup by testkit).
func startGateway(t *testing.T, ccfg cluster.Config, scfg server.Config, addrs ...string) (*cluster.Pool, *client.Client) {
	t.Helper()
	g := testkit.StartGateway(t, ccfg, scfg, addrs...)
	return g.Pool, testkit.DialPool(t, g.Addr, client.Config{Conns: 2})
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

// TestGatewayAffinityAndAggregation drives many repetitions of a pattern
// population through client → gateway → 2 backends and checks the two
// cluster-level invariants: results match the sequential reference, and
// every pattern was characterized on exactly one backend (the sum of the
// backends' decision-cache entries equals the population size — pattern
// affinity held). It also pins the gateway HELLO capability bit and that
// STATS through the gateway is the aggregate of both engines.
func TestGatewayAffinityAndAggregation(t *testing.T) {
	b1 := startBackend(t, engine.Config{}, server.Config{})
	b2 := startBackend(t, engine.Config{}, server.Config{})
	_, cl := startGateway(t, cluster.Config{}, server.Config{}, b1.addr, b2.addr)

	h, err := cl.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&wire.HelloFlagGateway == 0 {
		t.Fatalf("gateway HELLO flags %#x missing gateway bit", h.Flags)
	}

	loops := workloads.HotKeySet(16, 0.2)
	refs := make(map[*trace.Loop][]float64, len(loops))
	for _, l := range loops {
		refs[l] = l.RunSequential()
	}
	const rounds = 10
	for r := 0; r < rounds; r++ {
		handles := make([]*client.Handle, len(loops))
		for i, l := range loops {
			if handles[i], err = cl.SubmitAsync(l); err != nil {
				t.Fatal(err)
			}
		}
		for i, hd := range handles {
			res, err := hd.Wait()
			if err != nil {
				t.Fatal(err)
			}
			assertMatches(t, loops[i].Name, res.Values, refs[loops[i]])
		}
	}

	s1, s2 := b1.eng.Stats(), b2.eng.Stats()
	total := int(s1.Jobs + s2.Jobs)
	if total != rounds*len(loops) {
		t.Fatalf("backends executed %d jobs, want %d", total, rounds*len(loops))
	}
	if s1.Jobs == 0 || s2.Jobs == 0 {
		t.Fatalf("one backend idle (%d/%d jobs): routing did not spread", s1.Jobs, s2.Jobs)
	}
	if got := s1.CacheEntries + s2.CacheEntries; got != len(loops) {
		t.Fatalf("%d decision-cache entries across 2 backends for %d patterns: affinity broke", got, len(loops))
	}

	agg, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Jobs != s1.Jobs+s2.Jobs {
		t.Fatalf("aggregated STATS reports %d jobs, backends hold %d", agg.Jobs, s1.Jobs+s2.Jobs)
	}
	if agg.CacheEntries != s1.CacheEntries+s2.CacheEntries {
		t.Fatalf("aggregated STATS reports %d cache entries, backends hold %d", agg.CacheEntries, s1.CacheEntries+s2.CacheEntries)
	}
}

// TestGatewayBackendDeathReroutes kills a backend with a pipeline of
// jobs in flight on it and requires every one of them to resolve
// correctly anyway: the gateway re-places jobs whose connection died
// onto the survivor (reduction jobs are pure, so resubmission is safe).
func TestGatewayBackendDeathReroutes(t *testing.T) {
	b1 := startBackend(t, engine.Config{Workers: 1}, server.Config{})
	b2 := startBackend(t, engine.Config{Workers: 1}, server.Config{})
	pool, cl := startGateway(t,
		cluster.Config{HealthInterval: time.Hour}, // no mid-test revival
		server.Config{}, b1.addr, b2.addr)

	// Locate the backend that owns this loop's pattern by submitting it
	// once and seeing which engine ran it.
	l := workloads.HotKeySet(1, 2.0)[0]
	want := l.RunSequential()
	res, err := cl.Submit(l)
	if err != nil {
		t.Fatal(err)
	}
	assertMatches(t, l.Name, res.Values, want)
	owner, survivor := b1, b2
	if b2.eng.Stats().Jobs > 0 {
		owner, survivor = b2, b1
	}

	// Pipeline a burst onto the owner, then cut every socket under it.
	// The owner's single worker is parked first and the cut waits until
	// its server has admitted part of the burst: jobs are then in flight
	// on the doomed sockets however fast the burst would have executed.
	release, err := owner.eng.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	const burst = 64
	handles := make([]*client.Handle, burst)
	for i := range handles {
		if handles[i], err = cl.SubmitAsync(l); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); owner.d.Srv.Inflight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no burst job reached the owner")
		}
	}
	owner.kill()
	release()
	for _, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("job lost to backend death: %v", err)
		}
		assertMatches(t, l.Name, res.Values, want)
	}

	ps := pool.PoolStats()
	if ps.Rerouted == 0 {
		t.Fatal("no job rerouted: the kill raced ahead of the pipeline")
	}
	for _, b := range ps.Backends {
		if b.Addr == owner.addr && b.Healthy {
			t.Fatal("dead backend still marked healthy")
		}
	}
	if survivor.eng.Stats().Jobs == 0 {
		t.Fatal("survivor executed nothing")
	}
}

// busyStub is a protocol-correct backend that answers BUSY(global) to
// every submission — the deterministic way to drive the gateway's retry
// budget to exhaustion.
func busyStub(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				if _, err := wire.ReadPreamble(br); err != nil {
					return
				}
				buf := wire.GetBuffer()
				buf.B = wire.AppendHello(buf.B, wire.Hello{Version: wire.ProtoVersion, Procs: 4, MaxInflight: 64})
				nc.Write(buf.B)
				buf.Free()
				r := wire.NewReader(br, 0)
				for {
					f, err := r.Next()
					if err != nil {
						return
					}
					out := wire.GetBuffer()
					out.B = wire.AppendBusy(out.B, f.JobID, wire.BusyGlobal)
					nc.Write(out.B)
					out.Free()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestGatewayAllBusySurfacesBusy pins the backpressure contract: when
// every backend answers BUSY past the bounded retry budget, the client
// sees ErrBusy carrying the upstream code — not an error, not a hang.
func TestGatewayAllBusySurfacesBusy(t *testing.T) {
	s1, s2 := busyStub(t), busyStub(t)
	pool, cl := startGateway(t,
		cluster.Config{BusyRetries: 1, BusyBackoff: 100 * time.Microsecond},
		server.Config{}, s1, s2)

	l := workloads.HotKeySet(1, 0.2)[0]
	_, err := cl.Submit(l)
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("all-busy tier returned %v, want ErrBusy", err)
	}
	if !strings.Contains(err.Error(), wire.BusyUpstream.String()) {
		t.Fatalf("busy error %q does not carry the upstream code", err)
	}
	ps := pool.PoolStats()
	if ps.BusyRetries == 0 || ps.Exhausted == 0 {
		t.Fatalf("pool stats %+v: expected busy retries and an exhausted job", ps)
	}
}

// hungStub is a backend that is alive at TCP but dead above it: it
// completes the preamble/HELLO handshake, then reads and discards every
// frame without ever answering — the half-open failure mode that
// produces neither a result nor a connection error.
func hungStub(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				if _, err := wire.ReadPreamble(br); err != nil {
					return
				}
				buf := wire.GetBuffer()
				buf.B = wire.AppendHello(buf.B, wire.Hello{Version: wire.ProtoVersion, Procs: 4, MaxInflight: 64})
				nc.Write(buf.B)
				buf.Free()
				r := wire.NewReader(br, 0)
				for {
					if _, err := r.Next(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientWaitTimeout pins the client-level escape hatch: a job on a
// half-open connection resolves with ErrTimeout once the caller's
// deadline passes, instead of blocking forever.
func TestClientWaitTimeout(t *testing.T) {
	cl, err := client.Dial(hungStub(t), client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.SubmitAsync(workloads.HotKeySet(1, 0.2)[0])
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := h.WaitTimeout(50 * time.Millisecond); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("wait on hung connection returned %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("WaitTimeout took %v", elapsed)
	}
}

// TestGatewayHungBackendTimesOut pins the tier-level consequence: a
// backend that accepts jobs and never answers cannot pin them (or the
// gateway's admission slots) forever — the leg times out, the backend
// is marked down, and with no alternative the client gets BUSY
// backpressure rather than a hang.
func TestGatewayHungBackendTimesOut(t *testing.T) {
	pool, cl := startGateway(t,
		cluster.Config{LegTimeout: 100 * time.Millisecond, HealthInterval: time.Hour},
		server.Config{}, hungStub(t))

	_, err := cl.Submit(workloads.HotKeySet(1, 0.2)[0])
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("hung tier returned %v, want ErrBusy backpressure", err)
	}
	ps := pool.PoolStats()
	if ps.TimedOut == 0 || ps.Exhausted == 0 {
		t.Fatalf("pool stats %+v: expected a timed-out leg and an exhausted job", ps)
	}
	if ps.Backends[0].Healthy {
		t.Fatal("hung backend still marked healthy")
	}
}

// TestGatewayMembershipRehash grows and then shrinks the pool mid-stream
// and requires every result to stay correct: adding a backend re-homes
// only the patterns that rank it first, removing one re-places its jobs,
// and verification against the sequential reference holds throughout.
func TestGatewayMembershipRehash(t *testing.T) {
	b1 := startBackend(t, engine.Config{}, server.Config{})
	b2 := startBackend(t, engine.Config{}, server.Config{})
	pool, cl := startGateway(t, cluster.Config{}, server.Config{}, b1.addr, b2.addr)

	loops := workloads.HotKeySet(24, 0.2)
	refs := make(map[*trace.Loop][]float64, len(loops))
	for _, l := range loops {
		refs[l] = l.RunSequential()
	}
	round := func() {
		t.Helper()
		for _, l := range loops {
			res, err := cl.Submit(l)
			if err != nil {
				t.Fatal(err)
			}
			assertMatches(t, l.Name, res.Values, refs[l])
		}
	}

	round()

	// Grow: the new backend takes over the patterns that rank it first.
	b3 := startBackend(t, engine.Config{}, server.Config{})
	if err := pool.Add(b3.addr); err != nil {
		t.Fatal(err)
	}
	round()
	round()
	if b3.eng.Stats().Jobs == 0 {
		t.Fatal("grown backend received nothing over 48 placements")
	}

	// Shrink: remove a founding member; its patterns re-home and jobs it
	// held in flight (none here) would re-place.
	if !pool.Remove(b1.addr) {
		t.Fatal("Remove found nothing")
	}
	round()
	before := b1.eng.Stats().Jobs
	round()
	if got := b1.eng.Stats().Jobs; got != before {
		t.Fatalf("removed backend still receiving jobs (%d -> %d)", before, got)
	}
}

// TestGatewayHandlesNotReplayedAfterRedial kills the only backend under a
// gateway whose leg has learned pattern handles on it, then brings a
// fresh daemon up on the same address. Handles belong to the connection
// they were learned on: the redialed leg must open with the full loop
// (the new daemon numbers its handles from scratch and has already given
// the old ID to another pattern), so the new daemon never sees a stale
// reference — and afterwards the leg re-learns and goes back to sending
// references. The caller sees only results throughout.
func TestGatewayHandlesNotReplayedAfterRedial(t *testing.T) {
	b := startBackend(t, engine.Config{}, server.Config{})
	g := testkit.StartGateway(t,
		cluster.Config{Conns: 1, HealthInterval: 10 * time.Millisecond},
		server.Config{}, b.addr)
	cl := testkit.DialPool(t, g.Addr, client.Config{Conns: 1})

	l := workloads.HotKeySet(1, 0.2)[0]
	want := l.RunSequential()
	for i := 0; i < 4; i++ {
		res, err := cl.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		assertMatches(t, l.Name, res.Values, want)
	}
	// Both hops ship the pattern once: client → gateway and gateway →
	// backend each sent one full SUBMIT, then three references.
	if st := g.Srv.Stats(); st.HandleHits != 3 {
		t.Fatalf("gateway front door: handle hits %d, want 3", st.HandleHits)
	}
	if st := b.d.Srv.Stats(); st.HandleHits != 3 {
		t.Fatalf("backend: handle hits %d, want 3", st.HandleHits)
	}

	b.kill()
	fresh := testkit.StartDaemonAt(t, b.addr, engine.Config{}, server.Config{})
	decoy := testkit.DialPool(t, fresh.Addr, client.Config{Conns: 1})
	if _, err := decoy.Submit(workloads.HotKeySet(2, 0.2)[1]); err != nil {
		t.Fatal(err)
	}

	// The prober revives the backend within a few HealthIntervals; until
	// then the gateway answers BUSY (no backend available).
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := cl.Submit(l)
		if err == nil {
			assertMatches(t, l.Name, res.Values, want)
			break
		}
		if !errors.Is(err, client.ErrBusy) {
			t.Fatalf("submission during the outage: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("backend never revived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := fresh.Srv.Stats(); st.HandleHits != 0 || st.HandleGone != 0 {
		t.Fatalf("redialed leg opened with a reference: %+v", st)
	}
	for i := 0; i < 3; i++ {
		res, err := cl.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		assertMatches(t, l.Name, res.Values, want)
	}
	if st := fresh.Srv.Stats(); st.HandleHits != 3 || st.HandleGone != 0 {
		t.Fatalf("redialed leg did not re-learn the handle: %+v", st)
	}
}
