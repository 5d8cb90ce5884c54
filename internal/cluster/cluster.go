// Package cluster turns a set of reduxd daemons into one horizontally
// scaled reduction tier behind a gateway (cmd/reduxgw). It implements
// server.Dispatcher: the gateway's shared connection front end
// (internal/server) decodes and interns submissions exactly as the
// daemon does, then hands them here to be routed onward over the pooled
// pipelining client (internal/client).
//
// The routing rule is the whole point: submissions are placed by
// rendezvous-hashing the loop's pattern fingerprint over the healthy
// backends, so every repetition of one access pattern lands on the same
// reduxd. The decision cache and the resident totals only pay off when
// equal-pattern jobs share an engine — the paper's application-centric
// locality argument, applied to placement instead of scheduling. Spread
// the same traffic round-robin and each backend would see every pattern:
// N× the cached decisions and resident totals, 1/N the hits on each.
//
// Placement is correctness-free — every backend answers with the loop's
// RunSequential bits whatever its procs (mul is refused) — so failure
// handling can be aggressive:
//
//   - Rendezvous hashing re-homes only the dead backend's patterns on
//     membership change; every other pattern keeps its engine (and its
//     warmed decision cache).
//   - Reduction jobs are pure functions of the submitted loop, so a job
//     cut off by a connection loss (client.ErrConnLost — executed or
//     not, unknown) is simply resubmitted to the next-ranked backend.
//   - BUSY from a backend is retried on the same backend with backoff
//     (keeping affinity through transient pressure), then spilled to the
//     next-ranked one; when the bounded budget is exhausted the job
//     fails with server.ErrOverloaded, which the gateway's front end
//     turns into BUSY(BusyUpstream) — explicit backpressure to the
//     client rather than unbounded internal queueing.
//
// A background prober revives backends that dropped out: a backend is
// marked unhealthy the moment a dispatch observes its connection die,
// taken out of the rendezvous ranking, and probed every HealthInterval
// until it answers again.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config parameterizes a Pool.
type Config struct {
	// Backends is the initial reduxd address list. Unreachable backends
	// are admitted unhealthy and probed until they answer; New fails only
	// when the list is empty.
	Backends []string
	// Conns is each backend client's connection pool size (default 2).
	Conns int
	// DialTimeout bounds one dial attempt (default 5s).
	DialTimeout time.Duration
	// HealthInterval is the probe period for unhealthy backends (default
	// 250ms). Healthy backends are not probed — the data path itself
	// detects their failures.
	HealthInterval time.Duration
	// BusyRetries is how many times a BUSY answer is retried on the same
	// backend, with backoff, before the job spills to the next-ranked
	// one. Zero means the default of 2; negative disables same-backend
	// retries entirely (spill immediately — a latency-over-affinity
	// policy).
	BusyRetries int
	// BusyBackoff is the initial sleep between BUSY retries, doubling per
	// attempt (default 1ms).
	BusyBackoff time.Duration
	// LegTimeout bounds one backend's silence on a dispatched job or a
	// stats fetch (default 30s — engine jobs resolve in microseconds to
	// milliseconds, so expiry means the backend is wedged, not slow). A
	// timed-out backend is marked down and the job re-placed; without
	// this bound a half-open backend — alive at TCP, dead above it —
	// would pin jobs and admission slots forever.
	LegTimeout time.Duration
}

func (c *Config) fill() {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.BusyRetries == 0 {
		c.BusyRetries = 2
	} else if c.BusyRetries < 0 {
		c.BusyRetries = 0
	}
	if c.BusyBackoff <= 0 {
		c.BusyBackoff = time.Millisecond
	}
	if c.LegTimeout <= 0 {
		c.LegTimeout = 30 * time.Second
	}
}

// Pool is a health-checked set of reduxd backends with pattern-affinity
// routing. It implements server.Dispatcher; put it behind
// server.NewWithDispatcher to make a gateway. Safe for concurrent use.
type Pool struct {
	cfg Config

	mu       sync.RWMutex
	backends []*backend
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup

	rerouted    atomic.Uint64 // jobs re-placed after their backend's connection died
	timedOut    atomic.Uint64 // jobs re-placed after a backend sat silent past LegTimeout
	busyRetries atomic.Uint64 // same-backend resubmissions after BUSY
	busySpills  atomic.Uint64 // jobs that left their affinity backend because of BUSY
	exhausted   atomic.Uint64 // jobs that ran out of backends (surfaced as ErrOverloaded)
}

// backend is one reduxd in the pool.
type backend struct {
	addr string
	seed uint64 // rendezvous seed, derived from addr

	probeMu sync.Mutex // serializes probe() (Add races the health loop)
	cl      atomic.Pointer[client.Client]
	healthy atomic.Bool
	procs   atomic.Int64 // from the backend's HELLO, for aggregate Procs()
	jobs    atomic.Uint64
}

// New builds a pool over cfg.Backends and starts its health prober.
// Backends that do not answer immediately are admitted unhealthy; the
// pool is usable as soon as any backend is reachable.
func New(cfg Config) (*Pool, error) {
	cfg.fill()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	p := &Pool{cfg: cfg, stop: make(chan struct{})}
	for _, addr := range cfg.Backends {
		if err := p.Add(addr); err != nil {
			return nil, err
		}
	}
	p.wg.Add(1)
	go p.healthLoop()
	return p, nil
}

// Add registers one backend address, attempting an eager dial (failure
// leaves it unhealthy for the prober to revive). Patterns that rank the
// new backend highest migrate to it; everything else keeps its engine.
func (p *Pool) Add(addr string) error {
	b := &backend{addr: addr, seed: seedFor(addr)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("cluster: pool closed")
	}
	for _, have := range p.backends {
		if have.addr == addr {
			p.mu.Unlock()
			return fmt.Errorf("cluster: backend %s already in pool", addr)
		}
	}
	p.backends = append(p.backends, b)
	p.mu.Unlock()
	p.probe(b)
	return nil
}

// Remove takes the backend at addr out of the pool and closes its
// client, reporting whether it was present. Jobs in flight on it resolve
// with a connection error and re-place onto the surviving backends; its
// patterns re-home by rendezvous ranking.
func (p *Pool) Remove(addr string) bool {
	p.mu.Lock()
	var gone *backend
	// Copy-on-write: snapshot() hands the membership slice to readers
	// that iterate it outside the lock, so removal must build a fresh
	// slice rather than shift the shared backing array in place.
	next := make([]*backend, 0, len(p.backends))
	for _, b := range p.backends {
		if b.addr == addr {
			gone = b
			continue
		}
		next = append(next, b)
	}
	p.backends = next
	p.mu.Unlock()
	if gone == nil {
		return false
	}
	gone.healthy.Store(false)
	if cl := gone.cl.Load(); cl != nil {
		cl.Close()
	}
	return true
}

// Close stops the prober and closes every backend client. Jobs still in
// flight resolve with connection errors.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	backends := append([]*backend(nil), p.backends...)
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	for _, b := range backends {
		b.healthy.Store(false)
		if cl := b.cl.Load(); cl != nil {
			cl.Close()
		}
	}
}

// snapshot returns the current membership without holding the lock.
func (p *Pool) snapshot() []*backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.backends
}

// seedFor hashes a backend address into its rendezvous seed (FNV-1a).
func seedFor(addr string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}

// score mixes a pattern fingerprint with the backend's seed
// (SplitMix64-style finalizer). The backend with the highest score owns
// the pattern; because each backend scores independently, removing one
// re-homes only the patterns it owned — every other pattern keeps its
// warmed engine.
func (b *backend) score(fp uint64) uint64 {
	h := fp ^ b.seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pick returns the highest-scoring healthy backend for fp that tried
// does not exclude, or nil when none remains.
func (p *Pool) pick(fp uint64, tried map[*backend]bool) *backend {
	var best *backend
	var bestScore uint64
	for _, b := range p.snapshot() {
		if tried[b] || !b.healthy.Load() {
			continue
		}
		if s := b.score(fp); best == nil || s > bestScore || (s == bestScore && b.addr < best.addr) {
			best, bestScore = b, s
		}
	}
	return best
}

// markDown records a data-path failure: the backend leaves the
// rendezvous ranking until the prober revives it.
func (p *Pool) markDown(b *backend) { b.healthy.Store(false) }

// healthLoop probes unhealthy backends every HealthInterval.
func (p *Pool) healthLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			for _, b := range p.snapshot() {
				if !b.healthy.Load() {
					p.probe(b)
				}
			}
		}
	}
}

// probe tries to (re)establish b. A backend with no client yet gets an
// eager Dial (which validates address, protocol and version). A backend
// that was marked down is checked with a fresh, deadline-bounded probe
// connection — not the pooled client, whose Hello answers from a cached
// session without network I/O and would revive a dead backend on
// stale evidence. On success the backend rejoins the rendezvous
// ranking; the pooled client redials transparently on the next job.
//
// The mutex serializes concurrent probes of one backend (Add runs one
// synchronously while the health loop ticks): without it two callers
// could both Dial and both Store, leaking the loser's live connections.
func (p *Pool) probe(b *backend) {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	if b.cl.Load() == nil {
		fresh, err := client.Dial(b.addr, client.Config{
			Conns:       p.cfg.Conns,
			DialTimeout: p.cfg.DialTimeout,
		})
		if err != nil {
			return
		}
		b.cl.Store(fresh)
		if h, err := fresh.Hello(); err == nil {
			b.procs.Store(int64(h.Procs))
			b.healthy.Store(true)
		}
		return
	}
	if h, ok := probeDial(b.addr, p.cfg.DialTimeout); ok {
		b.procs.Store(int64(h.Procs))
		b.healthy.Store(true)
	}
}

// probeDial performs one real liveness round-trip: dial, preamble, read
// the HELLO, all under the dial timeout. Either the backend proves it is
// serving this protocol version right now (DecodeHello refuses another),
// or the probe fails.
func probeDial(addr string, timeout time.Duration) (wire.Hello, bool) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return wire.Hello{}, false
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(timeout))
	if err := wire.WritePreamble(nc); err != nil {
		return wire.Hello{}, false
	}
	f, err := wire.NewReader(nc, wire.DefaultMaxFrame).Next()
	if err != nil {
		return wire.Hello{}, false
	}
	h, err := f.DecodeHello()
	if err != nil {
		return wire.Hello{}, false
	}
	return h, true
}

// BackendStatus is one backend's slice of PoolStats.
type BackendStatus struct {
	// Addr is the backend's dial address.
	Addr string
	// Healthy reports whether the backend is in the rendezvous ranking.
	Healthy bool
	// Jobs counts submissions this pool dispatched to the backend
	// (including failover legs).
	Jobs uint64
}

// PoolStats is a snapshot of the pool's routing and failover counters —
// the gateway-tier counters reduxgw prints next to the aggregated engine
// statistics.
type PoolStats struct {
	// Backends lists per-backend status in membership order.
	Backends []BackendStatus
	// Rerouted counts jobs re-placed after their backend's connection
	// died mid-flight.
	Rerouted uint64
	// TimedOut counts jobs re-placed after a backend sat silent past
	// LegTimeout (the half-open-backend escape hatch).
	TimedOut uint64
	// BusyRetries counts same-backend resubmissions after BUSY answers.
	BusyRetries uint64
	// BusySpills counts jobs that left their affinity backend because its
	// BUSY retry budget ran out.
	BusySpills uint64
	// Exhausted counts jobs that ran out of backends entirely and were
	// surfaced to the client as BUSY(BusyUpstream).
	Exhausted uint64
}

// PoolStatsFields is the schema of PoolStats' scalars, one row each, in
// /metrics page order (see engine.StatsFields; these rows never travel,
// so they carry no wire position).
var PoolStatsFields = []obs.Field[PoolStats]{
	{Series: "redux_cluster_rerouted_total", Help: "Jobs re-placed after their backend's connection died.",
		Key: "rerouted", U64: func(s *PoolStats) *uint64 { return &s.Rerouted }},
	{Series: "redux_cluster_timedout_total", Help: "Jobs re-placed after a backend sat silent past the leg timeout.",
		Key: "timed_out", U64: func(s *PoolStats) *uint64 { return &s.TimedOut }},
	{Series: "redux_cluster_busy_retries_total", Help: "Same-backend resubmissions after BUSY answers.",
		Key: "busy_retries", U64: func(s *PoolStats) *uint64 { return &s.BusyRetries }},
	{Series: "redux_cluster_busy_spills_total", Help: "Jobs that left their affinity backend after the BUSY retry budget.",
		Key: "busy_spills", U64: func(s *PoolStats) *uint64 { return &s.BusySpills }},
	{Series: "redux_cluster_exhausted_total", Help: "Jobs that ran out of backends (answered BUSY upstream).",
		Key: "exhausted", U64: func(s *PoolStats) *uint64 { return &s.Exhausted }},
}

// PoolStats snapshots the routing counters.
func (p *Pool) PoolStats() PoolStats {
	s := PoolStats{
		Rerouted:    p.rerouted.Load(),
		TimedOut:    p.timedOut.Load(),
		BusyRetries: p.busyRetries.Load(),
		BusySpills:  p.busySpills.Load(),
		Exhausted:   p.exhausted.Load(),
	}
	for _, b := range p.snapshot() {
		s.Backends = append(s.Backends, BackendStatus{
			Addr:    b.addr,
			Healthy: b.healthy.Load(),
			Jobs:    b.jobs.Load(),
		})
	}
	return s
}
