package tier

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workloads"
)

// small is the engine shape the tests boot.
var small = engine.Config{Workers: 2, Platform: core.DefaultPlatform(4)}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// boot starts a tier on a fresh loopback port.
func boot(t *testing.T, start func(net.Listener) (*Tier, error)) *Tier {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := start(ln)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCloseLeavesNoGoroutine boots client → gateway → two daemons,
// serves jobs through it, and checks Close returns nil and takes every
// goroutine the tiers started with it.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var daemons []*Tier
	var addrs []string
	for range 2 {
		d := boot(t, func(ln net.Listener) (*Tier, error) { return StartDaemon(ln, small, server.Config{}) })
		daemons = append(daemons, d)
		addrs = append(addrs, d.Addr)
	}
	gw := boot(t, func(ln net.Listener) (*Tier, error) {
		return StartGateway(ln, cluster.Config{Backends: addrs}, server.Config{})
	})
	cl, err := client.Dial(gw.Addr, client.Config{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range workloads.HotKeySet(4, 0.05) {
		for range 3 {
			if _, err := cl.Submit(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, err := gw.Snapshot()
	if err != nil || snap.Engine.Jobs != 12 || snap.Pool == nil || len(snap.Pool.Backends) != 2 {
		t.Fatalf("gateway snapshot %+v, %v", snap, err)
	}
	cl.Close()
	for _, tr := range append([]*Tier{gw}, daemons...) {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
	settle(t, base)
}

// TestStartErrors: a rejected configuration closes the listener it was
// given and leaves nothing running.
func TestStartErrors(t *testing.T) {
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartDaemon(ln, engine.Config{Workers: -1}, server.Config{}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("listener left open")
	}
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartGateway(ln, cluster.Config{}, server.Config{}); err == nil {
		t.Fatal("gateway without backends accepted")
	}
	settle(t, base)
}

// TestUncleanServe: a listener cut from outside is an error of Drain
// unless the tier was told to expect it.
func TestUncleanServe(t *testing.T) {
	for _, expect := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d, err := StartDaemon(ln, small, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if expect {
			d.ExpectUncleanServe()
		}
		ln.Close()
		<-d.served
		if err := d.Close(); (err != nil) == expect {
			t.Errorf("expect unclean %v: Close = %v", expect, err)
		}
	}
}

// TestGatewayWithoutBackends: with every backend down the snapshot has
// no engine counters and /metrics carries the gateway's own series.
func TestGatewayWithoutBackends(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g, err := StartGateway(ln, cluster.Config{Backends: []string{addr}}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if snap, err := g.Snapshot(); err == nil || snap.Engine != nil || snap.Server == nil || snap.Pool == nil {
		t.Fatalf("snapshot %+v, %v", snap, err)
	}
	var b bytes.Buffer
	if err := g.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if page := b.String(); strings.Contains(page, "redux_engine_jobs_total") ||
		!strings.Contains(page, "redux_server_busy_total") || !strings.Contains(page, "redux_cluster_backend_up") {
		t.Errorf("metrics page:\n%s", page)
	}
}

// syncBuffer is a bytes.Buffer Main can write while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// restore puts Main's process surface back when t ends.
func restore(t *testing.T) {
	out, errs, n := stdout, stderr, notify
	t.Cleanup(func() { stdout, stderr, notify = out, errs, n })
}

// host runs Main in the background, once it has swapped Main's process
// surface (restore): it returns when Main waits for a signal, with the
// channel that delivers one and the one that carries the exit code.
func host(name, debugAddr, banner string, start func(net.Listener) (*Tier, error)) (chan<- os.Signal, <-chan int) {
	notified := make(chan chan<- os.Signal, 1)
	notify = func(c chan<- os.Signal) { notified <- c }
	code := make(chan int, 1)
	go func() { code <- Main(name, "127.0.0.1:0", debugAddr, 10*time.Second, banner, start) }()
	select {
	case sig := <-notified:
		return sig, code
	case c := <-code:
		code := make(chan int, 1)
		code <- c
		return nil, code
	}
}

// field returns the last word of the first line of out starting with
// prefix.
func field(out, prefix string) string {
	for line := range strings.Lines(out) {
		if strings.HasPrefix(line, prefix) {
			f := strings.Fields(line)
			return f[len(f)-1]
		}
	}
	return ""
}

// TestMainDaemonAndGateway runs the shared process body as reduxd and as
// reduxgw in front of it: the listening lines, /metrics on the debug
// mux, the drain on a signal and the summaries. The engine_jobs row is
// swapped for a row appended under a new key, so the job count reaches
// the daemon's /metrics, the gateway's aggregate — fetched over the
// wire, as keyed STATS rows — and both summaries only through the new
// row, with no edit to the codec or the binaries.
func TestMainDaemonAndGateway(t *testing.T) {
	saved := engine.StatsFields
	t.Cleanup(func() { engine.StatsFields = saved })
	engine.StatsFields = append(slices.DeleteFunc(slices.Clone(saved), func(f obs.Field[engine.Stats]) bool {
		return f.Key == "engine_jobs"
	}), obs.Field[engine.Stats]{
		Series: "redux_engine_probe_total", Key: "probe_row",
		U64: func(s *engine.Stats) *uint64 { return &s.Jobs },
	})
	restore(t)
	var out, errs syncBuffer
	stdout, stderr = &out, &errs

	dsig, dcode := host("reduxd", "127.0.0.1:0", "(2 workers x 4 procs)", func(ln net.Listener) (*Tier, error) {
		return StartDaemon(ln, small, server.Config{})
	})
	if dsig == nil {
		t.Fatalf("reduxd exited %d:\n%s", <-dcode, errs.String())
	}
	daddr, banner, _ := strings.Cut(strings.TrimPrefix(out.String(), "reduxd: listening on "), " ")
	if !strings.HasPrefix(out.String(), "reduxd: listening on ") || !strings.HasPrefix(banner, "(2 workers x 4 procs)\n") {
		t.Fatalf("listening line:\n%s", out.String())
	}

	var gw *Tier
	gsig, gcode := host("reduxgw", "", "fronting 1 backends", func(ln net.Listener) (*Tier, error) {
		tr, err := StartGateway(ln, cluster.Config{Backends: []string{daddr}}, server.Config{})
		gw = tr
		return tr, err
	})
	if gsig == nil {
		t.Fatalf("reduxgw exited %d:\n%s", <-gcode, errs.String())
	}
	cl, err := client.Dial(gw.Addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := workloads.HotKeySet(1, 0.05)[0]
	for range 3 {
		if _, err := cl.Submit(l); err != nil {
			t.Fatal(err)
		}
	}
	if agg, err := cl.Stats(); err != nil || agg.Jobs != 3 {
		t.Fatalf("gateway aggregate over the wire: %d jobs (%v), want 3", agg.Jobs, err)
	}
	cl.Close()

	resp, err := http.Get("http://" + field(out.String(), "reduxd: debug listening on ") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"\nredux_engine_probe_total 3\n", "\nredux_server_busy_total 0\n"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("daemon /metrics lacks %q:\n%s", want, page)
		}
	}

	// The gateway drains before its backend, as a deployment would.
	for _, p := range []struct {
		sig  chan<- os.Signal
		code <-chan int
	}{{gsig, gcode}, {dsig, dcode}} {
		p.sig <- syscall.SIGTERM
		if code := <-p.code; code != 0 {
			t.Errorf("exit code %d; stderr:\n%s", code, errs.String())
		}
	}
	for _, want := range []string{
		"reduxgw: terminated, draining\n",
		"reduxgw: engine: ",
		"reduxgw: server: ",
		"reduxgw: pool: all zero\n",
		"reduxgw: backend " + daddr + ": healthy, jobs=3\n",
		"reduxd: terminated, draining\n",
		"reduxd: engine: ",
		"reduxd: server: ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, name := range []string{"reduxd", "reduxgw"} {
		if got := field(out.String(), name+": engine: "); got != "probe_row=3" {
			t.Errorf("%s summary ends its engine line with %q, want the new row:\n%s", name, got, out.String())
		}
	}
}

// TestMainFailures: the exit codes of a listener that cannot bind, a
// configuration start rejects, a debug listener that cannot bind and a
// serve loop that stops on its own.
func TestMainFailures(t *testing.T) {
	restore(t)
	stdout, stderr = io.Discard, io.Discard
	daemon := func(ln net.Listener) (*Tier, error) { return StartDaemon(ln, small, server.Config{}) }
	if code := Main("x", "256.0.0.1:0", "", time.Second, "", daemon); code != 1 {
		t.Errorf("bad listen address: exit %d, want 1", code)
	}
	bad := func(ln net.Listener) (*Tier, error) {
		return StartDaemon(ln, engine.Config{Workers: -1}, server.Config{})
	}
	if code := Main("x", "127.0.0.1:0", "", time.Second, "", bad); code != 2 {
		t.Errorf("rejected config: exit %d, want 2", code)
	}
	if code := Main("x", "127.0.0.1:0", "256.0.0.1:0", time.Second, "", daemon); code != 1 {
		t.Errorf("bad debug address: exit %d, want 1", code)
	}
	cut := func(ln net.Listener) (*Tier, error) {
		tr, err := StartDaemon(ln, small, server.Config{})
		ln.Close()
		return tr, err
	}
	notify = func(chan<- os.Signal) {}
	if code := Main("x", "127.0.0.1:0", "", time.Second, "", cut); code != 1 {
		t.Errorf("serve stopped: exit %d, want 1", code)
	}
}
