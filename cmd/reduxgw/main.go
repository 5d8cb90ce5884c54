// Command reduxgw is the reduction gateway: it speaks the same wire
// protocol as reduxd on its listening side (clients cannot tell the
// difference, except for the gateway capability bit in HELLO) and routes
// every submission onward to a pool of reduxd backends by consistent-
// hashing the access-pattern fingerprint (internal/cluster). Equal
// patterns always land on the same backend, so batch fusion and the
// decision cache keep paying off at cluster scale.
//
//	reduxd  -addr 127.0.0.1:9071 &
//	reduxd  -addr 127.0.0.1:9072 &
//	reduxgw -addr 127.0.0.1:9070 -backends 127.0.0.1:9071,127.0.0.1:9072
//
// The bound address is printed as "reduxgw: listening on <addr>" once
// the listener is up (use port 0 to let the kernel pick;
// scripts/loadtest.sh scrapes this line). Backends that are down at
// startup are admitted unhealthy and probed every -health-interval until
// they answer. SIGINT/SIGTERM drain gracefully: the listener closes,
// in-flight jobs finish on their backends and flush to clients, then the
// backend clients close and a final aggregate report is printed.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9070", "TCP listen address (port 0 picks a free port)")
	backends := flag.String("backends", "", "comma-separated reduxd addresses to route across (required)")
	conns := flag.Int("conns", 2, "connections per backend")
	healthInterval := flag.Duration("health-interval", 250*time.Millisecond, "probe period for unhealthy backends")
	busyRetries := flag.Int("busy-retries", 2, "same-backend retries after BUSY before spilling to the next backend (negative: spill immediately)")
	legTimeout := flag.Duration("leg-timeout", 30*time.Second, "max backend silence per dispatched job before it is re-placed")
	maxInflight := flag.Int("max-inflight", 64, "in-flight job budget per client connection (beyond it: BUSY)")
	maxGlobal := flag.Int("max-global", 4096, "in-flight job budget across all client connections")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	debugAddr := flag.String("debug-addr", "", "HTTP debug listen address serving /metrics, /tracez, /healthz and /debug/pprof (empty: disabled)")
	traceSlow := flag.Duration("trace-slow", 0, "latency above which a job's stage timeline is kept for /tracez (0: 10ms default, negative: every job)")
	tenantsFlag := flag.String("tenants", "", "front-door tenant quotas: name[:weight[:rate[:burst[:quota]]]],... (admission only; backends run their own tenant config)")
	flag.Parse()

	tenants, err := server.ParseTenantSpecs(*tenantsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxgw:", err)
		os.Exit(2)
	}

	addrs := strings.Split(*backends, ",")
	var cleaned []string
	for _, a := range addrs {
		if a = strings.TrimSpace(a); a != "" {
			cleaned = append(cleaned, a)
		}
	}
	if len(cleaned) == 0 {
		fmt.Fprintln(os.Stderr, "reduxgw: -backends is required (comma-separated reduxd addresses)")
		os.Exit(2)
	}

	pool, err := cluster.New(cluster.Config{
		Backends:       cleaned,
		Conns:          *conns,
		HealthInterval: *healthInterval,
		BusyRetries:    *busyRetries,
		LegTimeout:     *legTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxgw:", err)
		os.Exit(2)
	}

	srv := server.NewWithDispatcher(pool, server.Config{
		MaxInflightPerConn: *maxInflight,
		MaxInflightGlobal:  *maxGlobal,
		TraceSlow:          *traceSlow,
		Tenants:            tenants,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxgw:", err)
		os.Exit(1)
	}
	fmt.Printf("reduxgw: listening on %s fronting %d backends (%d in-flight/conn, %d global)\n",
		ln.Addr(), len(cleaned), *maxInflight, *maxGlobal)

	if *debugAddr != "" {
		mux := obs.NewDebugMux("reduxgw", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			// The engine series are the tier-wide aggregate of every healthy
			// backend's STATS answer; a tier with no backend up scrapes the
			// gateway-local series only.
			if agg, err := pool.Stats(); err == nil {
				srv.MergeTenantBusy(&agg)
				if err := metrics.WriteEngineStats(w, agg); err != nil {
					return
				}
			}
			if err := metrics.WriteServerStats(w, srv); err != nil {
				return
			}
			metrics.WritePoolStats(w, pool.PoolStats())
		}), srv.Traces)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reduxgw: debug listener:", err)
			os.Exit(1)
		}
		fmt.Printf("reduxgw: debug listening on %s\n", dln.Addr())
		go http.Serve(dln, mux)
		defer dln.Close()
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("reduxgw: %v, draining\n", sig)
	case err := <-serveDone:
		fmt.Fprintln(os.Stderr, "reduxgw: serve:", err)
		pool.Close()
		os.Exit(1)
	}

	if err := srv.Shutdown(*drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "reduxgw:", err)
	}
	<-serveDone
	agg, aggErr := pool.Stats()
	if aggErr == nil {
		srv.MergeTenantBusy(&agg)
	}
	report(agg, aggErr, pool.PoolStats(), srv.Stats())
	pool.Close()
}

// report prints the lifetime aggregate on shutdown: cluster-wide engine
// counters, per-backend routing, failover counters and the gateway's own
// admission/intern figures.
func report(agg engine.Stats, aggErr error, ps cluster.PoolStats, ss server.Stats) {
	if aggErr != nil {
		fmt.Fprintln(os.Stderr, "reduxgw: aggregate stats unavailable:", aggErr)
	} else {
		fmt.Printf("reduxgw: tier served %d jobs in %d batches (%d coalesced), cache %d hits / %d misses, %d distinct patterns\n",
			agg.Jobs, agg.Batches, agg.Coalesced, agg.CacheHits, agg.CacheMisses, agg.CacheEntries)
		fmt.Printf("reduxgw: tier recalibration: %d re-inspections, %d scheme switches\n",
			agg.Recalibrations, agg.SchemeSwitches)
		if agg.SimplifiedBatches != 0 || agg.SimplifyFallbacks != 0 {
			fmt.Printf("reduxgw: tier simplification: %d batches (%d declined), segments %d computed / %d reused\n",
				agg.SimplifiedBatches, agg.SimplifyFallbacks, agg.SegsComputed, agg.SegsReused)
		}
		if agg.SessionOpens != 0 {
			// Sessions opened directly against the backends; the gateway
			// itself answers OPEN_SESSION with "sessions unsupported".
			fmt.Printf("reduxgw: tier sessions: %d opened, %d delta batches, segments %d recomputed / %d reused\n",
				agg.SessionOpens, agg.SessionJobs, agg.SessionSegsComputed, agg.SessionSegsReused)
		}
		for _, t := range agg.Tenants {
			fmt.Printf("reduxgw: tenant %s (weight %d): %d jobs tier-wide, %d busy rejections at the front door\n",
				t.Name, t.Weight, t.Jobs, t.Busy)
		}
		if len(agg.Schemes) > 0 {
			names := make([]string, 0, len(agg.Schemes))
			for name := range agg.Schemes {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Print("reduxgw: scheme mix:")
			for _, name := range names {
				fmt.Printf(" %s:%d", name, agg.Schemes[name])
			}
			fmt.Println()
		}
	}
	for _, b := range ps.Backends {
		state := "healthy"
		if !b.Healthy {
			state = "down"
		}
		fmt.Printf("reduxgw: backend %s: %s, %d jobs routed\n", b.Addr, state, b.Jobs)
	}
	fmt.Printf("reduxgw: failover: %d rerouted, %d timed out, %d busy retries, %d busy spills, %d exhausted\n",
		ps.Rerouted, ps.TimedOut, ps.BusyRetries, ps.BusySpills, ps.Exhausted)
	fmt.Printf("reduxgw: admission: %d busy rejections; intern: %d hits, %d resident loops; pattern handles: %d hits, %d gone; inline: %d\n",
		ss.Busy, ss.InternHits, ss.InternedLoops, ss.HandleHits, ss.HandleGone, ss.Inline)
}
