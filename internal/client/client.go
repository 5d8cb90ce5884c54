// Package client is the Go client for reduxd. It mirrors the engine API —
// Submit / SubmitInto / SubmitAsync / SubmitAsyncInto returning
// engine.Result — so code written against the in-process engine moves to
// the network with a one-line change.
//
// A Client owns a small pool of connections. Submissions round-robin
// across them and pipeline freely: each connection carries many in-flight
// jobs keyed by client-assigned IDs, and the server answers in completion
// order. Encoding uses the shared wire buffer pool and results decode
// into caller-provided destination arrays, so the steady-state submit
// path allocates almost nothing beyond the in-flight bookkeeping.
//
// Connections are established lazily and redialed transparently: a broken
// connection fails its in-flight jobs with ErrConnLost (the work may or
// may not have executed — resubmission is the caller's call, matching
// at-most-once delivery), and the next submission that lands on that pool
// slot dials afresh.
//
// Submitters do not write to the socket. Each connection has one write
// loop (wire.Writer): a submission queues its frame and returns, and the
// loop sends everything queued since its last write in one vectored
// write, so pipelined submissions share a syscall. A frame's write
// failure therefore never comes back from SubmitAsync*, Stats' or a
// session operation's send: it fails the connection, and every job on it
// — the one whose frame broke the write included — resolves with
// ErrConnLost, as a job whose frame was written before the connection
// died always has. Frames leave a connection in the order they were
// queued, so one goroutine's frames (a session's deltas among them)
// arrive in the order it sent them.
//
// A loop's access pattern crosses the wire once per connection. The
// RESULT of a loop's first full SUBMIT carries the handle the server
// interned it under; the connection
// remembers loop pointer → (fingerprint, handle) and every later
// submission of that *trace.Loop is a few-byte SUBMIT_REF. All of it is
// transparent: a handle the server has since dropped is answered
// "pattern gone" and the client resubmits the full loop itself, so the
// caller never sees the fallback. The one contract it adds is the one the
// engine's resident totals already rely on: a submitted loop is immutable
// while in use. A caller that mutates a loop it has
// submitted (AddIter, SetFlat) is only protected as far as the fingerprint
// sees — the client re-checks Fingerprint() on every submission and falls
// back to a full SUBMIT when it moved, but the fingerprint samples the
// trace, so an edit between its sample points would be answered with the
// old pattern's sums. Build a new loop instead.
package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config parameterizes a Client.
type Config struct {
	// Conns is the connection pool size (default 2).
	Conns int
	// DialTimeout bounds one dial attempt (default 5s).
	DialTimeout time.Duration
	// Tenant, when set, authenticates every pooled connection as that
	// tenant: a client HELLO carrying the name is sent right after the
	// preamble, and the server charges the connection's jobs against the
	// tenant's admission quotas and schedules them under its weight.
	// Empty means the default tenant, and no client HELLO is sent.
	Tenant string
}

func (c *Config) fill() {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
}

// Client is a pooled, pipelining reduxd client. Safe for concurrent use.
type Client struct {
	addr string
	cfg  Config
	dial func(network, addr string, timeout time.Duration) (net.Conn, error)

	next  atomic.Uint64 // round-robin cursor over the pool
	conns []*poolConn

	closed atomic.Bool
}

// Sentinel errors.
var (
	// ErrClosed is returned by submissions after Close.
	ErrClosed = errors.New("client: closed")
	// ErrConnLost resolves jobs whose connection broke before their
	// result arrived; whether the job executed is unknown.
	ErrConnLost = errors.New("client: connection lost")
	// ErrBusy resolves jobs the server rejected under admission control;
	// back off and resubmit.
	ErrBusy = errors.New("client: server busy")
	// ErrTimeout is returned by WaitTimeout when the deadline expired
	// before the job resolved. The job stays pending — the connection is
	// unaffected and a later Wait can still collect the response.
	ErrTimeout = errors.New("client: wait timeout")
	// ErrSessionGone resolves streaming-session operations whose
	// server-side session no longer exists — evicted under memory
	// pressure, expired past its idle TTL, or lost with its connection.
	// The rolling state is unrecoverable; re-open and replay.
	ErrSessionGone = errors.New("client: session gone")
)

// Dial connects to a reduxd server. The first connection is established
// eagerly — validating address, protocol and version (a server of
// another version fails it with wire.ErrVersion) — and the rest of the
// pool dials lazily on first use.
func Dial(addr string, cfg Config) (*Client, error) {
	return dialVia(addr, cfg, net.DialTimeout)
}

// dialVia is Dial with the function that opens each pooled connection.
func dialVia(addr string, cfg Config, dial func(network, addr string, timeout time.Duration) (net.Conn, error)) (*Client, error) {
	cfg.fill()
	c := &Client{addr: addr, cfg: cfg, dial: dial, conns: make([]*poolConn, cfg.Conns)}
	for i := range c.conns {
		c.conns[i] = &poolConn{cl: c}
	}
	if _, err := c.conns[0].ensure(); err != nil {
		return nil, err
	}
	return c, nil
}

// Hello returns the server greeting from an established connection.
func (c *Client) Hello() (wire.Hello, error) {
	pc, err := c.pick()
	if err != nil {
		return wire.Hello{}, err
	}
	s, err := pc.ensure()
	if err != nil {
		return wire.Hello{}, err
	}
	return s.hello, nil
}

// Submit runs one reduction job on the server and blocks for its result.
func (c *Client) Submit(l *trace.Loop) (engine.Result, error) {
	return c.SubmitInto(l, nil)
}

// SubmitInto is Submit decoding the result into dst when it has the
// capacity, mirroring engine.SubmitInto.
func (c *Client) SubmitInto(l *trace.Loop, dst []float64) (engine.Result, error) {
	h, err := c.SubmitAsyncInto(l, dst)
	if err != nil {
		return engine.Result{}, err
	}
	return h.Wait()
}

// SubmitAsync enqueues one job and returns a Handle without waiting, so a
// client can pipeline many submissions over one connection.
func (c *Client) SubmitAsync(l *trace.Loop) (*Handle, error) {
	return c.SubmitAsyncInto(l, nil)
}

// SubmitAsyncInto is SubmitAsync with a caller-provided destination
// array; dst must not be touched until Wait returns.
func (c *Client) SubmitAsyncInto(l *trace.Loop, dst []float64) (*Handle, error) {
	return c.SubmitAsyncIntoTraced(l, dst, 0)
}

// SubmitAsyncIntoTraced is SubmitAsyncInto carrying an end-to-end trace
// ID: the server records the job's stage timeline under it (visible at
// /tracez on every tier the job crosses). With a zero ID the server
// assigns its own.
func (c *Client) SubmitAsyncIntoTraced(l *trace.Loop, dst []float64, traceID uint64) (*Handle, error) {
	if l == nil {
		return nil, errors.New("client: nil loop")
	}
	pc, err := c.pick()
	if err != nil {
		return nil, err
	}
	return pc.submit(l, dst, traceID)
}

// Stats fetches the server engine's statistics snapshot.
func (c *Client) Stats() (engine.Stats, error) {
	pc, err := c.pick()
	if err != nil {
		return engine.Stats{}, err
	}
	return pc.stats()
}

// Close tears down the pool. In-flight jobs, and frames still queued for
// a write, resolve with ErrClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	for _, pc := range c.conns {
		pc.close()
	}
	return nil
}

// pick selects the next pool slot round-robin. Dead slots redial on use,
// which is what makes reconnection transparent.
func (c *Client) pick() (*poolConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	return c.conns[c.next.Add(1)%uint64(len(c.conns))], nil
}

// outcome resolves one in-flight job (or stats request). A stats
// snapshot travels by pointer: every job's result channel and Handle
// hold an outcome, and only a stats request carries one.
type outcome struct {
	res   engine.Result
	stats *engine.Stats
	err   error
}

// Handle is a pending remote submission belonging to a single waiter.
type Handle struct {
	done     chan outcome
	out      outcome
	received bool
}

// Wait blocks until the job resolves: a result, a job error from the
// server, ErrBusy under admission control, or ErrConnLost if the
// connection died first. It may be called repeatedly.
func (h *Handle) Wait() (engine.Result, error) {
	if !h.received {
		h.out = <-h.done
		h.received = true
	}
	return h.out.res, h.out.err
}

// WaitTimeout is Wait bounded by d (zero or negative waits forever).
// On ErrTimeout the job is still pending: whether it executes is
// unknown, and if the connection later delivers its response, that
// response is decoded into the submission's destination array — a
// caller that gives up and resubmits the work elsewhere must therefore
// stop sharing that array. This is what lets a gateway bound its
// exposure to a half-open backend whose connection neither answers nor
// dies.
func (h *Handle) WaitTimeout(d time.Duration) (engine.Result, error) {
	if h.received {
		return h.out.res, h.out.err
	}
	if d <= 0 {
		return h.Wait()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case h.out = <-h.done:
		h.received = true
		return h.out.res, h.out.err
	case <-t.C:
		return engine.Result{}, ErrTimeout
	}
}

// pend is the read loop's record of one in-flight job.
type pend struct {
	done chan outcome
	dst  []float64
	// statsReq marks a statistics request, whose response is a STATS
	// frame rather than RESULT/ERROR/BUSY.
	statsReq bool

	// loop and traceID are a one-shot SUBMIT's payload (loop is nil for
	// every other operation), kept so the job can be sent again in full
	// when its reference is answered "pattern gone". fp is the loop's
	// fingerprint at submission. ref is the handle the frame went out
	// under, 0 for a full SUBMIT; register decides it.
	loop    *trace.Loop
	traceID uint64
	fp      uint64
	ref     uint64
}

// maxHandles bounds one connection's loop → handle table. It pins caller
// loops, so it must not grow without limit under never-repeating traffic;
// on overflow the table is simply reset and the live patterns re-learn
// their handles at one full SUBMIT each.
const maxHandles = 1024

// patternHandle is what a connection remembers about a loop the server
// holds: the fingerprint the handle was issued under and the server's ID.
type patternHandle struct{ fp, id uint64 }

// poolConn is one pool slot: at most one live netSession at a time, redialed
// on demand after failures.
type poolConn struct {
	cl *Client
	mu sync.Mutex // guards session swap and dialing
	s  *netSession
}

// netSession is one live TCP connection with its pending-job table.
type netSession struct {
	pc    *poolConn
	nc    net.Conn
	w     *wire.Writer[struct{}] // the connection's write loop
	hello wire.Hello

	pendMu  sync.Mutex
	pending map[uint64]*pend
	dead    bool
	nextID  uint64
	nextSID uint64 // streaming-session ids, scoped to this connection
	// handles maps a submitted loop to the pattern handle this
	// connection's server issued for it (guarded by pendMu). It lives and
	// dies with the connection, so a handle is never replayed to a
	// restarted server.
	handles map[*trace.Loop]patternHandle
}

// ensure returns the slot's live session, dialing if necessary.
func (pc *poolConn) ensure() (*netSession, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.s != nil {
		return pc.s, nil
	}
	if pc.cl.closed.Load() {
		return nil, ErrClosed
	}
	nc, err := pc.cl.dial("tcp", pc.cl.addr, pc.cl.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", pc.cl.addr, err)
	}
	if err := wire.WritePreamble(nc); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: preamble: %w", err)
	}
	s := &netSession{
		pc:      pc,
		nc:      nc,
		pending: make(map[uint64]*pend),
		handles: make(map[*trace.Loop]patternHandle),
	}
	// The server speaks first: its HELLO validates version agreement
	// (DecodeHello fails another version with wire.ErrVersion) before any
	// job is risked on the connection.
	hr := wire.NewReader(nc, wire.DefaultMaxFrame)
	nc.SetReadDeadline(time.Now().Add(pc.cl.cfg.DialTimeout))
	f, err := hr.Next()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: reading hello: %w", err)
	}
	if s.hello, err = f.DecodeHello(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: %w", err)
	}
	nc.SetReadDeadline(time.Time{})
	// The client's own HELLO (connection-scoped, job ID 0, mirroring the
	// server's) binds the connection to its tenant before any job rides
	// it; the default tenant needs none.
	if t := pc.cl.cfg.Tenant; t != "" {
		if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Tenant: t})); err != nil {
			nc.Close()
			return nil, fmt.Errorf("client: hello: %w", err)
		}
	}
	s.w = wire.NewWriter[struct{}](nc, nil, func(err error) {
		s.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
	})
	pc.s = s
	go s.readLoop(hr)
	return s, nil
}

// close tears the slot down.
func (pc *poolConn) close() {
	pc.mu.Lock()
	s := pc.s
	pc.mu.Unlock()
	if s != nil {
		s.fail(ErrClosed)
	}
}

// submit registers a pending job on the slot's session and queues its
// SUBMIT frame. A write failure kills the session (failing its in-flight
// jobs, this one included) and leaves the slot ready to redial.
func (pc *poolConn) submit(l *trace.Loop, dst []float64, traceID uint64) (*Handle, error) {
	s, err := pc.ensure()
	if err != nil {
		return nil, err
	}
	// Fingerprinted now, compared in register: a loop the caller changed
	// since its handle was learned must go out in full.
	p := &pend{done: make(chan outcome, 1), dst: dst, loop: l, traceID: traceID, fp: l.Fingerprint()}
	id, err := s.register(p)
	if err != nil {
		return nil, err
	}
	s.sendSubmit(id, p)
	return &Handle{done: p.done}, nil
}

// sendSubmit encodes and queues p's job under id: a SUBMIT_REF when
// register found a current handle for the loop, the full SUBMIT otherwise.
func (s *netSession) sendSubmit(id uint64, p *pend) {
	buf := wire.GetBuffer()
	if p.ref != 0 {
		buf.B = wire.AppendSubmitRef(buf.B, id, p.fp, p.ref, p.traceID)
	} else {
		buf.B = wire.AppendSubmitTraced(buf.B, id, p.loop, p.traceID)
	}
	s.send(buf)
}

// resubmit sends p's job again after its SUBMIT_REF was answered "pattern
// gone" (the handle is already forgotten, so this goes out in full unless
// a sibling job re-learned it meanwhile). It runs on its own goroutine,
// never the read loop: a send blocks on a full write queue behind a full
// socket, and the read loop is what keeps the peer draining. The job
// keeps its pend, so the caller's Handle resolves exactly once either way
// — by the read loop when the answer arrives, by fail when the write
// breaks the connection, or here when the connection died before the job
// could re-register.
func (s *netSession) resubmit(p *pend) {
	id, err := s.register(p)
	if err != nil {
		p.done <- outcome{err: err}
		return
	}
	s.sendSubmit(id, p)
}

// stats issues a STATSREQ and waits for the snapshot.
func (pc *poolConn) stats() (engine.Stats, error) {
	s, err := pc.ensure()
	if err != nil {
		return engine.Stats{}, err
	}
	p := &pend{done: make(chan outcome, 1), statsReq: true}
	id, err := s.register(p)
	if err != nil {
		return engine.Stats{}, err
	}
	buf := wire.GetBuffer()
	buf.B = wire.AppendStatsReq(buf.B, id)
	s.send(buf)
	out := <-p.done
	if out.err != nil {
		return engine.Stats{}, out.err
	}
	return *out.stats, nil
}

// register assigns the next job ID on the session. IDs start at 1; 0 is
// connection-scoped on the wire. For a one-shot submission it also
// decides, under the same lock, whether the job can go by reference: only
// when the connection holds a handle for this very loop object and the
// loop's fingerprint has not moved since that handle was learned.
func (s *netSession) register(p *pend) (uint64, error) {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	if s.dead {
		return 0, ErrConnLost
	}
	p.ref = 0
	if p.loop != nil {
		if h, ok := s.handles[p.loop]; ok && h.fp == p.fp {
			p.ref = h.id
		}
	}
	s.nextID++
	id := s.nextID
	s.pending[id] = p
	return id, nil
}

// learn remembers the handle a RESULT carried for p's loop. A full table
// is reset wholesale (see maxHandles).
func (s *netSession) learn(p *pend, id uint64) {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	if _, known := s.handles[p.loop]; !known && len(s.handles) >= maxHandles {
		clear(s.handles)
	}
	s.handles[p.loop] = patternHandle{fp: p.fp, id: id}
}

// forget drops the handle p's reference went out under, unless a newer
// one has replaced it since.
func (s *netSession) forget(p *pend) {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	if h, ok := s.handles[p.loop]; ok && h.id == p.ref {
		delete(s.handles, p.loop)
	}
}

// send queues one encoded frame for the write loop, which frees it. The
// frame's job must already be registered: if the frame cannot be written,
// fail resolves it.
func (s *netSession) send(buf *wire.Buffer) { s.w.Send(buf, struct{}{}) }

// readLoop dispatches response frames to their pending jobs until the
// connection dies, then fails whatever is left.
func (s *netSession) readLoop(r *wire.Reader) {
	for {
		f, err := r.Next()
		if err != nil {
			s.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		if f.JobID == 0 {
			// Connection-scoped ERROR: the server is telling us why it is
			// about to hang up.
			if msg, err := f.DecodeError(); err == nil {
				s.fail(fmt.Errorf("%w: server: %s", ErrConnLost, msg))
			} else {
				s.fail(ErrConnLost)
			}
			return
		}
		p := s.take(f.JobID)
		if p == nil {
			s.fail(fmt.Errorf("%w: response for unknown job %d", ErrConnLost, f.JobID))
			return
		}
		if p.ref != 0 && patternGone(f) {
			// The server dropped the pattern behind this job's handle.
			// Not the caller's business: forget the handle and send the
			// loop in full; the job resolves when that is answered.
			s.forget(p)
			go s.resubmit(p)
			continue
		}
		p.done <- s.resolve(f, p)
	}
}

// patternGone reports whether f is the protocol's "pattern gone" answer
// to a SUBMIT_REF.
func patternGone(f wire.Frame) bool {
	if f.Type != wire.FrameError {
		return false
	}
	msg, err := f.DecodeError()
	return err == nil && strings.HasPrefix(msg, wire.PatternGonePrefix)
}

// resolve turns one response frame into the job's outcome.
func (s *netSession) resolve(f wire.Frame, p *pend) outcome {
	if p.statsReq != (f.Type == wire.FrameStats) && f.Type != wire.FrameError {
		return outcome{err: fmt.Errorf("client: unexpected %v frame for job", f.Type)}
	}
	switch f.Type {
	case wire.FrameResult:
		res, handle, err := f.DecodeResultHandle(p.dst)
		if err != nil {
			return outcome{err: fmt.Errorf("client: %w", err)}
		}
		if handle != 0 && p.loop != nil {
			s.learn(p, handle)
		}
		return outcome{res: res}
	case wire.FrameError:
		msg, err := f.DecodeError()
		if err != nil {
			return outcome{err: fmt.Errorf("client: %w", err)}
		}
		if rest, ok := strings.CutPrefix(msg, wire.SessionGonePrefix); ok {
			// The protocol-level session-gone prefix becomes the typed
			// sentinel, so callers can distinguish "re-open and replay"
			// from a genuinely failed operation.
			return outcome{err: fmt.Errorf("%w: %s", ErrSessionGone, rest)}
		}
		return outcome{err: fmt.Errorf("client: server: %s", msg)}
	case wire.FrameBusy:
		code, err := f.DecodeBusy()
		if err != nil {
			return outcome{err: fmt.Errorf("client: %w", err)}
		}
		return outcome{err: fmt.Errorf("%w (%s)", ErrBusy, code)}
	case wire.FrameStats:
		st, err := f.DecodeStats()
		if err != nil {
			return outcome{err: fmt.Errorf("client: %w", err)}
		}
		return outcome{stats: &st}
	default:
		return outcome{err: fmt.Errorf("client: unexpected %v frame", f.Type)}
	}
}

// take removes and returns the pending record for id.
func (s *netSession) take(id uint64) *pend {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	p := s.pending[id]
	delete(s.pending, id)
	return p
}

// fail kills the session exactly once: the socket closes, the write loop
// frees what is still queued and exits, every in-flight job resolves with
// err, and the pool slot is cleared so the next submission redials.
func (s *netSession) fail(err error) {
	s.pendMu.Lock()
	if s.dead {
		s.pendMu.Unlock()
		return
	}
	s.dead = true
	pending := s.pending
	s.pending = nil
	s.pendMu.Unlock()

	s.nc.Close()
	s.w.Close()
	s.pc.mu.Lock()
	if s.pc.s == s {
		s.pc.s = nil
	}
	s.pc.mu.Unlock()
	for _, p := range pending {
		p.done <- outcome{err: err}
	}
}
