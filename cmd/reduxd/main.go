// Command reduxd is the reduction daemon: one long-lived adaptive engine
// behind a TCP front end speaking the wire protocol (docs/PROTOCOL.md).
// Many clients connect, pipeline reduction jobs, and share the engine's
// decision cache, buffer pools and resident totals — the paper's runtime
// turned into a network service.
//
//	reduxd -addr 127.0.0.1:9070 -workers 4 -procs 8
//
// The bound address is printed as "reduxd: listening on <addr>" once the
// listener is up (use -addr 127.0.0.1:0 to let the kernel pick a port;
// scripts/loadtest.sh scrapes this line). SIGINT/SIGTERM drain
// gracefully: listeners close, in-flight jobs finish and flush, a final
// stats summary is printed, and the engine closes. Boot, drain and the
// summary are internal/tier's, shared with reduxgw.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/tier"
)

// The command line.
var (
	addr         = flag.String("addr", "127.0.0.1:9070", "TCP listen address (port 0 picks a free port)")
	workers      = flag.Int("workers", 4, "concurrent jobs in the engine's pool")
	procs        = flag.Int("procs", 8, "goroutines per reduction execution")
	queue        = flag.Int("queue", 0, "submission queue depth in jobs (0 = 2*workers)")
	driftRatio   = flag.Float64("drift-ratio", 0, "cost-drift ratio marking a cached decision stale (0 = default 1.5)")
	recalEvery   = flag.Int("recal-every", 0, "executions between sampled re-profiles of a cached decision (0 = default 256)")
	recalConfirm = flag.Int("recal-confirm", 0, "consecutive confirming re-inspections before a scheme switch (0 = default 2)")
	norecal      = flag.Bool("norecal", false, "disable online recalibration of cached decisions")
	maxInflight  = flag.Int("max-inflight", 64, "in-flight job budget per connection (beyond it: BUSY)")
	maxGlobal    = flag.Int("max-global", 1024, "in-flight job budget across all connections")
	maxSessions  = flag.Int("max-sessions", 0, "resident streaming-session budget (0 = default 256; beyond it: evict or BUSY)")
	sessionTTL   = flag.Duration("session-ttl", 0, "idle streaming-session expiry (0 = default 2m)")
	sessionBytes = flag.Int64("session-bytes", 0, "resident session state budget in bytes (0 = default 64 MiB)")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	debugAddr    = flag.String("debug-addr", "", "HTTP debug listen address serving /metrics, /tracez, /healthz and /debug/pprof (empty: disabled)")
	traceSlow    = flag.Duration("trace-slow", 0, "latency above which a job's stage timeline is kept for /tracez (0: 10ms default, negative: every job)")
	tenantsFlag  = flag.String("tenants", "", "tenant QoS config: name[:weight[:rate[:burst[:quota]]]],... (empty: single-tenant)")
)

func main() {
	flag.Parse()

	if *procs < 1 || *procs > 64 {
		fmt.Fprintf(os.Stderr, "reduxd: -procs must be in [1,64], got %d\n", *procs)
		os.Exit(2)
	}
	tenants, err := server.ParseTenantSpecs(*tenantsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxd:", err)
		os.Exit(2)
	}
	ecfg := engine.Config{
		Workers:      *workers,
		Platform:     core.DefaultPlatform(*procs),
		QueueDepth:   *queue,
		DriftRatio:   *driftRatio,
		RecalEvery:   *recalEvery,
		RecalConfirm: *recalConfirm,
		DisableRecal: *norecal,
		Tenants:      server.EngineTenants(tenants),
	}
	scfg := server.Config{
		MaxInflightPerConn: *maxInflight,
		MaxInflightGlobal:  *maxGlobal,
		MaxSessions:        *maxSessions,
		SessionTTL:         *sessionTTL,
		MaxSessionBytes:    *sessionBytes,
		TraceSlow:          *traceSlow,
		Tenants:            tenants,
	}
	banner := fmt.Sprintf("(%d workers x %d procs, %d in-flight/conn, %d global)",
		*workers, *procs, *maxInflight, *maxGlobal)
	os.Exit(tier.Main("reduxd", *addr, *debugAddr, *drainTimeout, banner, func(ln net.Listener) (*tier.Tier, error) {
		return tier.StartDaemon(ln, ecfg, scfg)
	}))
}
