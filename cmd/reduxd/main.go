// Command reduxd is the reduction daemon: one long-lived adaptive engine
// behind a TCP front end speaking the wire protocol (docs/PROTOCOL.md).
// Many clients connect, pipeline reduction jobs, and share the engine's
// decision cache, buffer pools and batch fusion — the paper's runtime
// turned into a network service.
//
//	reduxd -addr 127.0.0.1:9070 -workers 4 -procs 8
//
// The bound address is printed as "reduxd: listening on <addr>" once the
// listener is up (use -addr 127.0.0.1:0 to let the kernel pick a port;
// scripts/loadtest.sh scrapes this line). SIGINT/SIGTERM drain
// gracefully: listeners close, in-flight jobs finish and flush, the
// engine closes, and a final stats summary is printed.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9070", "TCP listen address (port 0 picks a free port)")
	workers := flag.Int("workers", 4, "concurrent batches in the engine's pool")
	procs := flag.Int("procs", 8, "goroutines per reduction execution")
	queue := flag.Int("queue", 0, "submission queue depth in batches (0 = 2*workers)")
	maxBatch := flag.Int("max-batch", 0, "max jobs fused per execution (0 = default 32; 1 disables batch coalescing)")
	driftRatio := flag.Float64("drift-ratio", 0, "cost-drift ratio marking a cached decision stale (0 = default 1.5)")
	recalEvery := flag.Int("recal-every", 0, "executions between sampled re-profiles of a cached decision (0 = default 256)")
	recalConfirm := flag.Int("recal-confirm", 0, "consecutive confirming re-inspections before a scheme switch (0 = default 2)")
	norecal := flag.Bool("norecal", false, "disable online recalibration of cached decisions")
	maxInflight := flag.Int("max-inflight", 64, "in-flight job budget per connection (beyond it: BUSY)")
	maxGlobal := flag.Int("max-global", 1024, "in-flight job budget across all connections")
	maxSessions := flag.Int("max-sessions", 0, "resident streaming-session budget (0 = default 256; beyond it: evict or BUSY)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle streaming-session expiry (0 = default 2m)")
	sessionBytes := flag.Int64("session-bytes", 0, "resident session state budget in bytes (0 = default 64 MiB)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	debugAddr := flag.String("debug-addr", "", "HTTP debug listen address serving /metrics, /tracez, /healthz and /debug/pprof (empty: disabled)")
	traceSlow := flag.Duration("trace-slow", 0, "latency above which a job's stage timeline is kept for /tracez (0: 10ms default, negative: every job)")
	tenantsFlag := flag.String("tenants", "", "tenant QoS config: name[:weight[:rate[:burst[:quota]]]],... (empty: single-tenant)")
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

	eng, err := engine.New(engine.Config{
		Workers:      *workers,
		Platform:     core.DefaultPlatform(*procs),
		QueueDepth:   *queue,
		MaxBatch:     *maxBatch,
		DriftRatio:   *driftRatio,
		RecalEvery:   *recalEvery,
		RecalConfirm: *recalConfirm,
		DisableRecal: *norecal,
		Tenants:      server.EngineTenants(tenants),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxd:", err)
		os.Exit(2)
	}

	srv := server.New(eng, server.Config{
		MaxInflightPerConn: *maxInflight,
		MaxInflightGlobal:  *maxGlobal,
		MaxSessions:        *maxSessions,
		SessionTTL:         *sessionTTL,
		MaxSessionBytes:    *sessionBytes,
		TraceSlow:          *traceSlow,
		Tenants:            tenants,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxd:", err)
		os.Exit(1)
	}
	fmt.Printf("reduxd: listening on %s (%d workers x %d procs, %d in-flight/conn, %d global)\n",
		ln.Addr(), *workers, *procs, *maxInflight, *maxGlobal)

	if *debugAddr != "" {
		mux := obs.NewDebugMux("reduxd", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			stats := eng.Stats()
			srv.MergeTenantBusy(&stats)
			if err := metrics.WriteEngineStats(w, stats); err != nil {
				return
			}
			metrics.WriteServerStats(w, srv)
		}), srv.Traces)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reduxd: debug listener:", err)
			os.Exit(1)
		}
		fmt.Printf("reduxd: debug listening on %s\n", dln.Addr())
		go http.Serve(dln, mux)
		defer dln.Close()
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("reduxd: %v, draining\n", sig)
	case err := <-serveDone:
		fmt.Fprintln(os.Stderr, "reduxd: serve:", err)
		eng.Close()
		os.Exit(1)
	}

	if err := srv.Shutdown(*drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "reduxd:", err)
	}
	<-serveDone
	eng.Close()
	final := eng.Stats()
	srv.MergeTenantBusy(&final)
	report(final, srv.Stats())
}

// report prints the lifetime counters on shutdown.
func report(s engine.Stats, ss server.Stats) {
	fmt.Printf("reduxd: served %d jobs in %d batches (%d coalesced), cache %d hits / %d misses, %d evictions\n",
		s.Jobs, s.Batches, s.Coalesced, s.CacheHits, s.CacheMisses, s.CacheEvictions)
	fmt.Printf("reduxd: admission: %d busy rejections; intern: %d hits, %d resident loops; pattern handles: %d hits, %d gone; inline: %d\n",
		ss.Busy, ss.InternHits, ss.InternedLoops, ss.HandleHits, ss.HandleGone, ss.Inline)
	fmt.Printf("reduxd: recalibration: %d re-inspections, %d scheme switches\n",
		s.Recalibrations, s.SchemeSwitches)
	if s.SimplifiedBatches != 0 || s.SimplifyFallbacks != 0 {
		fmt.Printf("reduxd: simplification: %d batches (%d declined), segments %d computed / %d reused\n",
			s.SimplifiedBatches, s.SimplifyFallbacks, s.SegsComputed, s.SegsReused)
	}
	if s.SessionOpens != 0 || ss.SessionEvictions != 0 {
		fmt.Printf("reduxd: sessions: %d opened (%d still resident, %d evicted), %d delta batches, segments %d recomputed / %d reused\n",
			s.SessionOpens, ss.Sessions, ss.SessionEvictions, s.SessionJobs, s.SessionSegsComputed, s.SessionSegsReused)
	}
	for _, t := range s.Tenants {
		fmt.Printf("reduxd: tenant %s (weight %d): %d jobs in %d batches, %d busy rejections\n",
			t.Name, t.Weight, t.Jobs, t.Batches, t.Busy)
	}
	if len(s.Schemes) > 0 {
		names := make([]string, 0, len(s.Schemes))
		for name := range s.Schemes {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Print("reduxd: scheme mix:")
		for _, name := range names {
			fmt.Printf(" %s:%d", name, s.Schemes[name])
		}
		fmt.Println()
	}
}
