// Package testkit consolidates the network-stack boot/teardown
// boilerplate the server, client and cluster tests share: an engine
// behind a reduxd-shaped server on a loopback listener, a gateway pool
// over backends, and a pooled client — each wired to t.Cleanup so a
// failing test still drains its listeners, connections and engines in
// the right order (cleanups run LIFO, so build stacks bottom-up and the
// client closes before the gateway, the gateway before the backends).
//
// The stacks are thin t.Cleanup wrappers over internal/tier, the boot
// and drain sequence the binaries share. All helpers are -race safe:
// teardown joins every goroutine it started (Serve loops, engine
// workers) before returning.
package testkit

import (
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/tier"
	"repro/internal/trace"
)

// shutdownTimeout bounds one component's graceful drain in teardown.
const shutdownTimeout = 10 * time.Second

// Daemon is one booted engine + server stack, the reduxd shape: its
// tier's Eng (owned by the stack), Srv and Addr. ExpectUncleanServe
// marks the listener as externally killed (a failure-injection test cut
// it): Close then accepts any Serve error, where it normally requires
// server.ErrServerClosed.
type Daemon struct{ stack }

// Gateway is a booted cluster pool behind a wire-protocol front end, the
// reduxgw shape: its tier's Pool (owned by the stack), Srv and Addr.
type Gateway struct{ stack }

// stack is a booted tier whose teardown fails the test on an unclean
// drain.
type stack struct {
	*tier.Tier
	t      testing.TB
	closed bool
}

// Close drains the stack: server shutdown, serve loop joined, engine or
// pool closed. It is idempotent, so tests may call it mid-run and the
// registered cleanup becomes a no-op.
func (s *stack) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Drain(shutdownTimeout)
	if err := s.Tier.Close(); err != nil {
		s.t.Errorf("testkit: close %s: %v", s.Addr, err)
	}
}

// StartDaemon boots an engine and a server on a random loopback port.
// Zero-value configs get the small test defaults (2 workers, 4 procs).
// Teardown is registered with t.Cleanup; call Close earlier to take the
// daemon down mid-test (e.g. to exercise reconnects).
func StartDaemon(t testing.TB, ecfg engine.Config, scfg server.Config) *Daemon {
	t.Helper()
	return StartDaemonAt(t, "127.0.0.1:0", ecfg, scfg)
}

// StartDaemonAt is StartDaemon on an explicit listen address — how a
// restart-on-the-same-port scenario boots its second daemon.
func StartDaemonAt(t testing.TB, addr string, ecfg engine.Config, scfg server.Config) *Daemon {
	t.Helper()
	return StartDaemonOn(t, listen(t, addr), ecfg, scfg)
}

// StartDaemonOn is StartDaemon over a caller-built listener — how a
// failure-injection test wraps the listener to cut live sockets.
func StartDaemonOn(t testing.TB, ln net.Listener, ecfg engine.Config, scfg server.Config) *Daemon {
	t.Helper()
	if ecfg.Workers == 0 {
		ecfg.Workers = 2
	}
	if ecfg.Platform.Procs == 0 {
		ecfg.Platform = core.DefaultPlatform(4)
	}
	tr, err := tier.StartDaemon(ln, ecfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &Daemon{stack{Tier: tr, t: t}}
	t.Cleanup(d.Close)
	return d
}

// StartGateway boots a pattern-routing gateway over the given backend
// addresses on a random loopback port, teardown via t.Cleanup. Start the
// backends first (with StartDaemon) so the LIFO cleanup order drains the
// gateway before them.
func StartGateway(t testing.TB, ccfg cluster.Config, scfg server.Config, backends ...string) *Gateway {
	t.Helper()
	ccfg.Backends = backends
	tr, err := tier.StartGateway(listen(t, "127.0.0.1:0"), ccfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &Gateway{stack{Tier: tr, t: t}}
	t.Cleanup(g.Close)
	return g
}

// listen opens a TCP listener on addr or fails t.
func listen(t testing.TB, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// DialPool connects a pooled pipelining client to addr and registers its
// Close with t.Cleanup (safe next to an explicit mid-test Close — the
// client's Close is idempotent).
func DialPool(t testing.TB, addr string, ccfg client.Config) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// StartSession opens a streaming session over cl and registers its Close
// with t.Cleanup (harmless next to an explicit close, or when the server
// evicted the session mid-test — Session.Close is a no-op both times).
// The returned result is the initial reduction at generation 1.
func StartSession(t testing.TB, cl *client.Client, l *trace.Loop) (*client.Session, engine.Result) {
	t.Helper()
	sess, res, err := cl.OpenSession(l)
	if err != nil {
		t.Fatalf("testkit: open session: %v", err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess, res
}
