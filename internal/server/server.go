// Package server implements reduxd: a TCP front end that multiplexes many
// client connections onto one shared engine.Engine. It is the network
// shape of the paper's runtime — the adaptive machinery (pattern
// characterization, decision cache, buffer pools) is amortized across
// every connected client, not just one process.
//
// The dataflow per connection is two goroutines around the shared engine:
//
//	read loop:  frame → admission → decode → check → intern → ServeEntry ───┐
//	            (SUBMIT_REF: admission → handle lookup ─────┘)    │ miss      │ hit: encode
//	                                                              ▼           │ from the
//	                                          engine.SubmitAsync → per-job    │ resident
//	                                          waiter: Handle.Wait → encode    │ total
//	write loop: pooled response buffers ←─────────────────────────┴───────────┘
//
// A submission whose loop the engine holds a verified resident total for,
// and every session frame — open, delta and close, answered in arrival
// order — runs to completion on the read loop: no engine queue, worker
// or waiter goroutine. Everything else — misses, cold loops, changed
// content — takes the engine queue. A loop engine.CheckLoop refuses
// (mul) draws a job-scoped ERROR right after decode.
//
// Neither loop sits behind a buffered-I/O layer. The read loop's
// wire.Reader reads the socket into one buffer and parses frames where
// they landed; the write loop takes every response queued at that moment
// and hands the batch to the socket as one vectored write, straight from
// the pooled buffers the encoders filled. A RESULT frame lends its vector
// rather than holding a copy (wire.Buffer.LendResult): the write sends
// the array from its own memory between the frame's head and tail, and
// freeing the frame hands a pooled array back to the destination pool —
// a resident total is immutable and is never pooled. A RESULT vector is
// therefore not touched in user space on its way out when served inline,
// once on the engine path (the engine's copy into the job's array), and
// once on its way in at the client (the decode) — docs/ARCHITECTURE.md
// "The byte path of a RESULT".
//
// Three properties carry the engine's performance across the network hop:
//
//   - Pipelining: responses are keyed by client-assigned job IDs and sent
//     as jobs finish, out of order, so one connection can keep many jobs
//     in flight.
//   - Interning: the server interns decoded submissions by fingerprint +
//     full pattern equality, into the engine's table (engine.Table) beside
//     each pattern's decision. Repeats of a hot pattern — the Zipf traffic
//     a production service sees — collapse onto one canonical
//     *trace.Loop, whose resident total verifies against its own storage
//     exactly as if a single process had submitted them. An interned
//     pattern also has a handle (fingerprint + entry ID): the RESULT of
//     a full SUBMIT carries it to clients that asked, and later
//     submissions of that loop arrive as a few-byte SUBMIT_REF resolved
//     with one table probe — the pattern is shipped and decoded once.
//   - Admission control: in-flight jobs are bounded per connection and
//     globally. Beyond either bound the server answers BUSY immediately
//     instead of queueing without limit, keeping tail latency and memory
//     bounded under overload (the client backs off and retries).
//
// Shutdown drains: listeners close, connections stop reading, every
// in-flight job's response is written, then connections close.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/reduction"
)

// Config parameterizes a Server. The request caps are not settings: a
// frame is at most wire.DefaultMaxFrame (64 MiB) and a loop at most
// wire.DefaultMaxElems wide. The frame cap is what holds the numerical
// contract for the wire: a 64 MiB SUBMIT carries fewer than 2^26
// references, so every served answer is RunSequential's bits (see
// engine.Submit; a mul loop draws an ERROR). A knob that raised the cap
// would break that contract without any error.
type Config struct {
	// MaxInflightPerConn bounds jobs in flight per connection (default
	// 64). Submissions beyond it draw BUSY(BusyConn).
	MaxInflightPerConn int
	// MaxInflightGlobal bounds jobs in flight across all connections
	// (default 1024). Submissions beyond it draw BUSY(BusyGlobal).
	MaxInflightGlobal int
	// TraceSlow is the end-to-end latency threshold at which a job's
	// stage timeline is recorded in the trace ring served at /tracez.
	// 0 means the 10ms default; negative records every job (what tests
	// and short debugging sessions use).
	TraceSlow time.Duration
	// TraceRingSize is the slow-job trace ring capacity (default 64).
	TraceRingSize int
	// MaxSessions bounds resident streaming sessions across all
	// connections (default 256); past it OPEN_SESSION evicts the
	// coldest session by CLOCK, and answers BUSY(BusySession) only when
	// nothing is evictable.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (default 2m). An
	// evicted session's next delta draws the typed session-gone ERROR.
	SessionTTL time.Duration
	// MaxSessionBytes bounds the summed resident footprint of all
	// sessions (default 64 MiB), enforced at OPEN_SESSION admission
	// alongside MaxSessions.
	MaxSessionBytes int64
	// Tenants declares the multi-tenant admission contracts (rate, burst,
	// in-flight quota per tenant). Clients bind to a tenant with the HELLO
	// tenant field; unidentified or unknown clients land on the default
	// tenant. Empty means single-tenant: no per-tenant gates, and STATS
	// frames carry no tenant rows.
	Tenants []TenantSpec
}

func (c *Config) fill() {
	if c.MaxInflightPerConn <= 0 {
		c.MaxInflightPerConn = 64
	}
	if c.MaxInflightGlobal <= 0 {
		c.MaxInflightGlobal = 1024
	}
	if c.TraceSlow == 0 {
		c.TraceSlow = 10 * time.Millisecond
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 2 * time.Minute
	}
	if c.MaxSessionBytes <= 0 {
		c.MaxSessionBytes = 64 << 20
	}
}

// gatewayInternedLoops bounds a gateway's table (a daemon uses its engine's).
const gatewayInternedLoops = 4096

// Server serves the wire protocol over one Dispatcher — the local shared
// engine for reduxd (New), a routed backend pool for reduxgw
// (NewWithDispatcher). Feed it listeners via Serve, stop with Shutdown.
type Server struct {
	disp     Dispatcher
	resident residentDispatcher // disp's inline serve; nil on a gateway
	cfg      Config
	intern   *engine.Table // the engine's own; a gateway's holds only loops
	sessions *sessionStore
	connIDs  atomic.Uint64 // distinguishes session owners across connections

	inflight atomic.Int64          // global in-flight jobs (admission control)
	dsts     *reduction.BufferPool // recycled result destination arrays
	// recycle is dsts.PutFloat64 as a func value, bound once: every frame
	// that lends a pooled array carries it to the write loop, so no job
	// pays for a closure.
	recycle func([]float64)

	// tenants is the admission table keyed by HELLO tenant name;
	// tenantList preserves configuration order (default first) for
	// deterministic stats merges.
	tenants    map[string]*tenantState
	tenantList []*tenantState

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup // accept loops + connections

	// Busy counts submissions rejected by admission control; Interned
	// counts submissions that mapped onto an already-canonical loop.
	busy     atomic.Uint64
	interned atomic.Uint64
	// handleHits counts SUBMIT_REF frames resolved through the table
	// (each also counts as interned); handleGone counts the ones
	// whose handle was no longer resident.
	handleHits atomic.Uint64
	handleGone atomic.Uint64
	// inlined counts jobs the read loop answered itself: resident submits
	// and applied deltas.
	inlined atomic.Uint64

	// stages aggregates every served job's stage timeline; ring keeps the
	// timelines of jobs slower than cfg.TraceSlow for /tracez.
	stages obs.StageSet
	ring   *obs.TraceRing
}

// New returns a server front end for eng. The engine is borrowed: the
// caller closes it after Shutdown returns.
func New(eng *engine.Engine, cfg Config) *Server {
	return NewWithDispatcher(engineDispatcher{eng}, cfg)
}

// NewWithDispatcher returns a server front end over an arbitrary
// Dispatcher — how the gateway reuses this package's connection
// machinery with routing instead of a local engine. The dispatcher is
// borrowed: the caller tears it down after Shutdown returns.
func NewWithDispatcher(d Dispatcher, cfg Config) *Server {
	cfg.fill()
	tenants, tenantList := buildTenantTable(cfg.Tenants, nil)
	resident, _ := d.(residentDispatcher)
	intern := engine.NewTable(16, gatewayInternedLoops)
	if resident != nil {
		intern = resident.Table()
	}
	s := &Server{
		disp:       d,
		resident:   resident,
		cfg:        cfg,
		intern:     intern,
		sessions:   newSessionStore(cfg.MaxSessions, cfg.SessionTTL, cfg.MaxSessionBytes),
		tenants:    tenants,
		tenantList: tenantList,
		lns:        make(map[net.Listener]struct{}),
		conns:      make(map[*conn]struct{}),
		ring:       obs.NewTraceRing(cfg.TraceRingSize),
		dsts:       reduction.NewBufferPool(),
	}
	s.recycle = s.dsts.PutFloat64
	return s
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after Shutdown the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			delete(s.lns, ln)
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown drains the server gracefully: listeners close, every
// connection stops accepting new submissions, all in-flight jobs complete
// and their responses flush, then connections close. It returns once all
// of that is done (or the timeout elapses, after which connections are
// cut; timeout 0 means wait forever). The engine itself is left running.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for ln := range s.lns {
			ln.Close()
		}
		for c := range s.conns {
			c.beginDrain()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: drain timed out after %v, connections cut", timeout)
	}
}

// removeConn unregisters a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Stats reports the server-level counters next to the engine's own.
type Stats struct {
	// Busy is how many submissions admission control rejected.
	Busy uint64
	// InternHits is how many submissions mapped onto an already-interned
	// canonical loop (so a resident hit verifies by identity).
	InternHits uint64
	// InternedLoops is the entry count of the table the server interns into.
	InternedLoops int
	// InternEvictions counts entries (and with them canonical loops and
	// pattern handles) the table's CLOCK sweep dropped to make room.
	InternEvictions uint64
	// HandleHits is how many submissions arrived as a pattern handle
	// (SUBMIT_REF) the table still held — no decode, no pattern
	// walk. They are included in InternHits.
	HandleHits uint64
	// HandleGone is how many handles missed (evicted, displaced by a
	// fingerprint collision, or issued before a restart) and were answered
	// "pattern gone"; the client resubmits each as a full SUBMIT.
	HandleGone uint64
	// Inline is how many jobs the connection's read loop answered itself,
	// with no engine queue or waiter goroutine: submissions served from a
	// verified resident total, and applied session deltas.
	Inline uint64
	// Sessions is the current resident streaming-session count.
	Sessions int
	// SessionOpens counts sessions admitted over the server's lifetime.
	SessionOpens uint64
	// SessionEvictions counts sessions torn down by TTL expiry or CLOCK
	// pressure (explicit CLOSE_SESSION is neither).
	SessionEvictions uint64
}

// StatsFields is the schema of Stats' scalars, one row each, in /metrics
// page order (see engine.StatsFields; these rows do not travel in STATS
// frames).
var StatsFields = []obs.Field[Stats]{
	{Series: "redux_server_busy_total", Help: "Submissions rejected by admission control (BUSY answers).",
		Key: "busy", U64: func(s *Stats) *uint64 { return &s.Busy }},
	{Series: "redux_server_intern_hits_total", Help: "Submissions that mapped onto an already-interned canonical loop.",
		Key: "intern_hits", U64: func(s *Stats) *uint64 { return &s.InternHits }},
	{Series: "redux_server_pattern_handle_hits_total", Help: "Submissions that arrived as a pattern handle the fingerprint table still held (no decode; included in intern hits).",
		Key: "handle_hits", U64: func(s *Stats) *uint64 { return &s.HandleHits }},
	{Series: "redux_server_pattern_handle_gone_total", Help: "Pattern handles that missed and were answered pattern-gone (the client resubmits in full).",
		Key: "handle_gone", U64: func(s *Stats) *uint64 { return &s.HandleGone }},
	{Series: "redux_server_inline_total", Help: "Jobs the connection's read loop answered itself: submissions served from a verified resident total, and applied session deltas.",
		Key: "inline", U64: func(s *Stats) *uint64 { return &s.Inline }},
	{Kind: obs.Gauge, Series: "redux_server_interned_loops", Help: "Entries in the fingerprint table the server interns into: the engine's on a daemon, its own on a gateway.",
		Key: "interned_loops", Int: func(s *Stats) *int { return &s.InternedLoops }},
	{Series: "redux_server_intern_evictions_total", Help: "Entries, and with them canonical loops and pattern handles, evicted by the CLOCK sweep of the fingerprint table the server interns into.",
		Key: "intern_evictions", U64: func(s *Stats) *uint64 { return &s.InternEvictions }},
	{Kind: obs.Gauge, Series: "redux_server_sessions", Help: "Streaming sessions currently resident.",
		Key: "sessions_resident", Int: func(s *Stats) *int { return &s.Sessions }},
	{Series: "redux_server_session_opens_total", Help: "Streaming sessions admitted (OPEN_SESSION accepted).",
		Key: "sessions_admitted", U64: func(s *Stats) *uint64 { return &s.SessionOpens }},
	{Series: "redux_server_session_evictions_total", Help: "Sessions evicted by TTL expiry or the CLOCK sweep.",
		Key: "session_evictions", U64: func(s *Stats) *uint64 { return &s.SessionEvictions }},
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Busy:             s.busy.Load(),
		InternHits:       s.interned.Load(),
		InternedLoops:    s.intern.Len(),
		InternEvictions:  s.intern.Evictions(),
		HandleHits:       s.handleHits.Load(),
		HandleGone:       s.handleGone.Load(),
		Inline:           s.inlined.Load(),
		Sessions:         s.sessions.len(),
		SessionOpens:     s.sessions.opens.Load(),
		SessionEvictions: s.sessions.evictions.Load(),
	}
}

// StageStats snapshots the per-stage latency histograms of every job the
// server finished, in pipeline order, stages without observations
// omitted. The engine's own stages (queue_wait, inspect, execute) appear
// here too — the dispatch waiter copies them onto each job's timeline.
func (s *Server) StageStats() []obs.StageSummary { return s.stages.Snapshot() }

// Traces snapshots the slow-job trace ring, newest first (the /tracez
// payload).
func (s *Server) Traces() []obs.JobTrace { return s.ring.Snapshot() }

// Inflight reports the jobs currently in flight across all connections —
// the live queue-depth signal /metrics exports.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// observe folds one finished job's timeline into the server's stage
// histograms and, when the job was slow (or TraceSlow is negative,
// meaning trace everything), into the trace ring.
func (s *Server) observe(tl *obs.Timeline, total time.Duration) {
	s.stages.ObserveTimeline(tl)
	if s.cfg.TraceSlow < 0 || total >= s.cfg.TraceSlow {
		s.ring.Add(tl.Trace(total))
	}
}
