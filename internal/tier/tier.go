// Package tier boots and drains the serving tiers: a daemon (an
// engine.Engine behind a server.Server, the reduxd shape) and a gateway
// (a cluster.Pool behind a server.Server, the reduxgw shape). It is the
// one boot sequence the binaries, internal/testkit and reduxserve
// -gateway share.
//
// A tier serves a listener its caller supplies, so a caller chooses the
// address or wraps the listener to inject faults. Close drains the
// server (listeners close, in-flight jobs finish and flush), joins its
// serve loop and only then closes the engine or the pool; close a
// gateway before its daemons. Every goroutine a tier started has
// returned when Close does.
package tier

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

// DrainTimeout bounds the graceful drain of Close.
const DrainTimeout = 30 * time.Second

// Tier is one booted serving tier: a wire-protocol server over a daemon's
// engine or a gateway's pool, serving one listener.
type Tier struct {
	// Srv is the wire-protocol front end.
	Srv *server.Server
	// Addr is the listener's address, the tier's dial address.
	Addr string
	// Eng is a daemon's engine (nil on a gateway). The tier owns it.
	Eng *engine.Engine
	// Pool is a gateway's backend pool (nil on a daemon). The tier owns
	// it.
	Pool *cluster.Pool

	served   chan struct{} // closed when Serve has returned
	serveErr error         // what Serve returned; read after served
	unclean  atomic.Bool

	drainOnce, closeOnce sync.Once
	drainErr             error
}

// StartDaemon boots an engine over ecfg and a server over scfg serving
// ln. The tier owns ln from here on: on an error ln is closed.
func StartDaemon(ln net.Listener, ecfg engine.Config, scfg server.Config) (*Tier, error) {
	eng, err := engine.New(ecfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return start(&Tier{Srv: server.New(eng, scfg), Eng: eng}, ln), nil
}

// StartGateway boots a pattern-routing pool over ccfg (ccfg.Backends
// names the daemons) and a server over scfg serving ln. The tier owns ln
// from here on: on an error ln is closed.
func StartGateway(ln net.Listener, ccfg cluster.Config, scfg server.Config) (*Tier, error) {
	pool, err := cluster.New(ccfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return start(&Tier{Srv: server.NewWithDispatcher(pool, scfg), Pool: pool}, ln), nil
}

// start runs t's serve loop on ln.
func start(t *Tier, ln net.Listener) *Tier {
	t.Addr = ln.Addr().String()
	t.served = make(chan struct{})
	go func() {
		t.serveErr = t.Srv.Serve(ln)
		close(t.served)
	}()
	return t
}

// ExpectUncleanServe marks the tier's listener as cut from outside (a
// fault injection closed it): Drain then accepts whatever error Serve
// returned, where it normally reports any error but
// server.ErrServerClosed.
func (t *Tier) ExpectUncleanServe() { t.unclean.Store(true) }

// Drain shuts the server down gracefully within timeout (0 waits
// forever) and joins its serve loop; the engine or pool keeps running,
// so its counters can still be read. Only the first call drains, and
// every call returns its error: the shutdown's, joined with Serve's
// when Serve stopped for any reason but the shutdown.
func (t *Tier) Drain(timeout time.Duration) error {
	t.drainOnce.Do(func() {
		err := t.Srv.Shutdown(timeout)
		<-t.served
		if !errors.Is(t.serveErr, server.ErrServerClosed) && !t.unclean.Load() {
			err = errors.Join(err, fmt.Errorf("serve: %w", t.serveErr))
		}
		t.drainErr = err
	})
	return t.drainErr
}

// Close drains the tier (within DrainTimeout, unless Drain ran already),
// then closes the engine or the pool. It is idempotent and returns
// Drain's error.
func (t *Tier) Close() error {
	err := t.Drain(DrainTimeout)
	t.closeOnce.Do(func() {
		if t.Eng != nil {
			t.Eng.Close()
		} else {
			t.Pool.Close()
		}
	})
	return err
}

// Snapshot reads the tier's counters for the shutdown summary: the
// engine's, with the server's per-tenant rejections folded into its
// tenant rows; the server's; and on a gateway the pool's. A gateway's
// engine counters are the merge of every healthy backend's STATS answer;
// when none answers, Engine is nil and the error says why.
func (t *Tier) Snapshot() (metrics.Snapshot, error) {
	ss := t.Srv.Stats()
	snap := metrics.Snapshot{Server: &ss}
	var es engine.Stats
	var err error
	if t.Eng != nil {
		es = t.Eng.Stats()
	} else {
		ps := t.Pool.PoolStats()
		snap.Pool = &ps
		es, err = t.Pool.Stats()
	}
	if err != nil {
		return snap, err
	}
	t.Srv.MergeTenantBusy(&es)
	snap.Engine = &es
	return snap, nil
}

// WriteMetrics renders the tier's /metrics page: the engine series (a
// gateway whose backends are all down writes its own series only), the
// server's, and on a gateway the pool's.
func (t *Tier) WriteMetrics(w io.Writer) error {
	snap, err := t.Snapshot()
	if err == nil {
		if err := metrics.WriteEngineStats(w, *snap.Engine); err != nil {
			return err
		}
	}
	if err := metrics.WriteServerStats(w, t.Srv); err != nil {
		return err
	}
	if snap.Pool != nil {
		return metrics.WritePoolStats(w, *snap.Pool)
	}
	return nil
}

// The process surface Main uses; tests swap them to drive Main in-process.
var (
	stdout, stderr io.Writer = os.Stdout, os.Stderr
	notify                   = func(c chan<- os.Signal) { signal.Notify(c, os.Interrupt, syscall.SIGTERM) }
)

// Main is the process body the tier binaries (cmd/reduxd, cmd/reduxgw)
// share. It listens on addr, boots the tier over that listener with
// start, and prints "<name>: listening on <addr> <banner>". With a
// debugAddr it serves the debug mux (obs.NewDebugMux: /metrics from
// WriteMetrics, /tracez, /healthz, pprof) there and prints
// "<name>: debug listening on <addr>". It then waits for SIGINT or
// SIGTERM, drains the tier within drain, prints the lifetime summary
// (metrics.WriteSummary, each line prefixed "<name>: ") and closes the
// tier. It returns the exit code: 0 after a drain, 1 when a listener
// fails or Serve stops on its own, 2 when start rejects its
// configuration.
func Main(name, addr, debugAddr string, drain time.Duration, banner string, start func(net.Listener) (*Tier, error)) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	t, err := start(ln)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s: listening on %s %s\n", name, t.Addr, banner)

	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "%s: debug listener: %v\n", name, err)
			t.Close()
			return 1
		}
		defer dln.Close()
		fmt.Fprintf(stdout, "%s: debug listening on %s\n", name, dln.Addr())
		scrape := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			t.WriteMetrics(w)
		})
		go http.Serve(dln, obs.NewDebugMux(name, scrape, t.Srv.Traces))
	}

	sig := make(chan os.Signal, 1)
	notify(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "%s: %v, draining\n", name, s)
	case <-t.served:
		fmt.Fprintf(stderr, "%s: serve: %v\n", name, t.serveErr)
		t.Close()
		return 1
	}
	if err := t.Drain(drain); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	snap, err := t.Snapshot()
	if err != nil {
		fmt.Fprintf(stderr, "%s: aggregate stats unavailable: %v\n", name, err)
	}
	metrics.WriteSummary(stdout, name+": ", snap)
	t.Close()
	return 0
}
