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
// in-flight jobs finish on their backends and flush to clients, a final
// aggregate report is printed, then the backend clients close. Boot,
// drain and the report are internal/tier's, shared with reduxd.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/tier"
)

// The command line.
var (
	addr           = flag.String("addr", "127.0.0.1:9070", "TCP listen address (port 0 picks a free port)")
	backendsFlag   = flag.String("backends", "", "comma-separated reduxd addresses to route across (required)")
	conns          = flag.Int("conns", 2, "connections per backend")
	healthInterval = flag.Duration("health-interval", 250*time.Millisecond, "probe period for unhealthy backends")
	busyRetries    = flag.Int("busy-retries", 2, "same-backend retries after BUSY before spilling to the next backend (negative: spill immediately)")
	legTimeout     = flag.Duration("leg-timeout", 30*time.Second, "max backend silence per dispatched job before it is re-placed")
	maxInflight    = flag.Int("max-inflight", 64, "in-flight job budget per client connection (beyond it: BUSY)")
	maxGlobal      = flag.Int("max-global", 4096, "in-flight job budget across all client connections")
	drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	debugAddr      = flag.String("debug-addr", "", "HTTP debug listen address serving /metrics, /tracez, /healthz and /debug/pprof (empty: disabled)")
	traceSlow      = flag.Duration("trace-slow", 0, "latency above which a job's stage timeline is kept for /tracez (0: 10ms default, negative: every job)")
	tenantsFlag    = flag.String("tenants", "", "front-door tenant quotas: name[:weight[:rate[:burst[:quota]]]],... (admission only; backends run their own tenant config)")
)

func main() {
	flag.Parse()

	tenants, err := server.ParseTenantSpecs(*tenantsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduxgw:", err)
		os.Exit(2)
	}
	var backends []string
	for _, a := range strings.Split(*backendsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			backends = append(backends, a)
		}
	}
	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "reduxgw: -backends is required (comma-separated reduxd addresses)")
		os.Exit(2)
	}
	ccfg := cluster.Config{
		Backends:       backends,
		Conns:          *conns,
		HealthInterval: *healthInterval,
		BusyRetries:    *busyRetries,
		LegTimeout:     *legTimeout,
	}
	scfg := server.Config{
		MaxInflightPerConn: *maxInflight,
		MaxInflightGlobal:  *maxGlobal,
		TraceSlow:          *traceSlow,
		Tenants:            tenants,
	}
	banner := fmt.Sprintf("fronting %d backends (%d in-flight/conn, %d global)",
		len(backends), *maxInflight, *maxGlobal)
	os.Exit(tier.Main("reduxgw", *addr, *debugAddr, *drainTimeout, banner, func(ln net.Listener) (*tier.Tier, error) {
		return tier.StartGateway(ln, ccfg, scfg)
	}))
}
