package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"net"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/wire"
)

// preambleTimeout bounds how long a fresh connection may sit silent
// before sending its magic, so dead or misdirected connections cannot
// hold sockets open forever.
const preambleTimeout = 10 * time.Second

// tlPool recycles per-job stage timelines. A timeline's lifetime is
// strictly read loop → (waiter goroutine →) write loop, so the write
// loop, which observes it after the socket write, is the last holder and
// returns it here.
var tlPool = sync.Pool{New: func() any { return new(obs.Timeline) }}

// outNote rides with one queued response through the write loop. A job's
// RESULT carries its timeline, its start t0 and the moment it was queued,
// so closeTimelines can close the timeline after the socket write; HELLO,
// STATS, ERROR and BUSY frames carry none.
type outNote struct {
	tl       *obs.Timeline
	t0, sent time.Time
}

// conn is one client connection: a read loop decoding submissions — and
// answering resident work itself — a waiter goroutine per job that went
// to the engine, and a write loop serializing their responses. Responses
// leave in completion order, not submission order — the client matches
// them by job ID.
type conn struct {
	srv *Server
	nc  net.Conn
	id  uint64 // session-store owner key (client session ids are conn-scoped)

	w *wire.Writer[outNote] // the write loop, started once the preamble is in

	inflight atomic.Int64   // this connection's in-flight jobs
	jobWG    sync.WaitGroup // waiter goroutines still running

	// tenant is the admission identity this connection charges, bound by
	// the client's HELLO tenant field (default until one arrives). Only
	// the read loop touches it; waiter goroutines capture what they need
	// before spawning.
	tenant *tenantState

	draining atomic.Bool

	// Decode scratch, reused frame after frame (only the read loop
	// touches it; interning clones before anything escapes, and
	// OPEN_SESSION decodes into the loop its session adopts instead).
	scratch      trace.Loop
	scratchOff   []int32
	scratchRefs  []int32
	scratchDelta []reduction.RefDelta
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:    s,
		nc:     nc,
		id:     s.connIDs.Add(1),
		tenant: s.tenantList[0],
	}
}

// beginDrain stops the read loop at its next frame boundary: the flag
// tells it why, the expired deadline unblocks it. In-flight jobs keep
// running and their responses still flush.
func (c *conn) beginDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Unix(1, 0))
}

// send hands one encoded response to the write loop, which frees it.
func (c *conn) send(buf *wire.Buffer) { c.w.Send(buf, outNote{}) }

// sendResult is send for a job's RESULT: whatever of the job's time since
// t0 no stage covers is charged to merge, the engine path's hand-off, so
// the stages sum to the job's total; the write loop adds the write stages
// and observes the timeline once the frame is on the socket.
func (c *conn) sendResult(buf *wire.Buffer, tl *obs.Timeline, t0 time.Time) {
	sent := time.Now()
	tl.Add(obs.StageMerge, sent.Sub(t0)-time.Duration(tl.TotalNs()))
	c.w.Send(buf, outNote{tl: tl, t0: t0, sent: sent})
}

func (c *conn) sendError(jobID uint64, msg string) {
	buf := wire.GetBuffer()
	buf.B = wire.AppendError(buf.B, jobID, msg)
	c.send(buf)
}

func (c *conn) sendBusy(jobID uint64, code wire.BusyCode) {
	c.srv.busy.Add(1)
	buf := wire.GetBuffer()
	buf.B = wire.AppendBusy(buf.B, jobID, code)
	c.send(buf)
}

// serve runs the connection to completion: preamble, hello, read loop,
// then the drain sequence (waiters finish, responses flush, socket
// closes). It owns the server's per-connection WaitGroup slot.
func (c *conn) serve() {
	defer c.srv.wg.Done()
	defer c.srv.removeConn(c)
	defer c.nc.Close()

	c.nc.SetReadDeadline(time.Now().Add(preambleTimeout))
	if c.draining.Load() {
		// Shutdown raced the deadline above onto a pre-preamble socket;
		// re-expire it so an idle connection cannot stall the drain for
		// the full preamble timeout.
		c.nc.SetReadDeadline(time.Unix(1, 0))
	}
	hello := wire.Hello{
		Version:     wire.ProtoVersion,
		Procs:       c.srv.disp.Procs(),
		MaxInflight: c.srv.cfg.MaxInflightPerConn,
		Flags:       c.srv.disp.HelloFlags(),
	}
	if _, err := wire.ReadPreamble(c.nc); err != nil {
		if errors.Is(err, wire.ErrVersion) {
			// A peer of another version learns which one this is, then
			// the connection closes: there is nothing to negotiate.
			c.nc.SetWriteDeadline(time.Now().Add(preambleTimeout))
			c.nc.Write(wire.AppendHello(nil, hello))
		}
		return
	}
	c.nc.SetReadDeadline(time.Time{})
	if c.draining.Load() {
		// Shutdown raced the deadline reset; re-arm it so the read loop
		// still exits immediately.
		c.nc.SetReadDeadline(time.Unix(1, 0))
	}

	c.w = wire.NewWriter(c.nc, c.closeTimelines, nil)
	buf := wire.GetBuffer()
	buf.B = wire.AppendHello(buf.B, hello)
	c.send(buf)

	r := wire.NewReader(c.nc, wire.DefaultMaxFrame)
	for {
		f, err := r.Next()
		if err != nil {
			// A framing error means the stream is unrecoverable: tell the
			// client why before closing. Clean EOF and the drain deadline
			// close silently.
			if errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrFrameTooLarge) {
				c.sendError(0, err.Error())
			}
			break
		}
		if f.Type == wire.FrameHello {
			// A client HELLO binds the connection to a tenant. It rides
			// job ID 0 (connection-scoped), so it must be recognized before
			// the violation check below. Unknown tenant names degrade to
			// the default tenant rather than failing the connection, so a
			// fleet can be configured incrementally.
			h, err := f.DecodeHello()
			if err != nil {
				c.sendError(0, err.Error())
				break
			}
			c.tenant = c.srv.tenantFor(h.Tenant)
			continue
		}
		if f.JobID == 0 {
			c.sendError(0, "protocol violation: job id 0 is connection-scoped")
			break
		}
		if f.Type == wire.FrameSubmit || f.Type == wire.FrameSubmitRef {
			c.handleSubmit(f)
			continue
		}
		if f.Type == wire.FrameStatsReq {
			c.handleStatsReq(f)
			continue
		}
		if f.Type == wire.FrameOpenSession {
			c.handleOpenSession(f)
			continue
		}
		if f.Type == wire.FrameDelta {
			c.handleDelta(f)
			continue
		}
		if f.Type == wire.FrameCloseSession {
			c.handleCloseSession(f)
			continue
		}
		c.sendError(0, fmt.Sprintf("protocol violation: unexpected %v frame", f.Type))
		break
	}

	// Drain: every accepted job resolves and its response is written
	// before the socket closes; then the connection's resident sessions
	// are torn down (their owner is gone, no delta can ever reach them).
	c.jobWG.Wait()
	c.srv.sessions.dropConn(c.id)
	c.w.Close()
}

// handleStatsReq answers one statistics request off the read loop: for
// a gateway dispatcher Stats() is remote fan-out, and pipelined SUBMITs
// behind the request must not wait on it. Responses are ID-keyed, so
// ordering is free; jobWG makes drain wait for the answer to flush.
// Stats requests draw on the same admission budgets as submissions —
// each holds a goroutine (and, on a gateway, backend RPCs) exactly like
// a job, so an unbudgeted flood of STATSREQ frames must hit BUSY the
// same way a flood of SUBMITs does.
func (c *conn) handleStatsReq(f wire.Frame) {
	jobID := f.JobID
	ts, ok := c.admit(jobID)
	if !ok {
		return
	}
	if err := f.DecodeStatsReq(); err != nil {
		c.release(ts)
		c.sendError(jobID, err.Error())
		return
	}
	c.jobWG.Add(1)
	go func() {
		defer c.jobWG.Done()
		defer c.release(ts)
		stats, err := c.srv.disp.Stats()
		if err != nil {
			// A stats failure (e.g. no healthy gateway backend) is
			// job-scoped: the stream stays in sync, the connection lives.
			c.sendError(jobID, err.Error())
			return
		}
		c.srv.MergeTenantBusy(&stats)
		buf := wire.GetBuffer()
		buf.B = wire.AppendStats(buf.B, jobID, &stats)
		c.send(buf)
	}()
}

// handleSubmit admits, decodes and interns one submission, then answers
// it on the read loop when the loop's resident total verifies
// (serveInline), else hands the wait to a per-job goroutine so the read
// loop can keep pipelining. Admission runs first, on nothing but the
// already-parsed header: an over-budget client is rejected for the price
// of a BUSY frame, before the server spends decode work or table
// mutations (and evictions) on a job it will not run.
//
// A SUBMIT_REF takes the same path with both expensive steps replaced:
// "decode" reads three integers and "intern" is one table probe — no
// pattern crosses the socket, none is walked. Its fingerprint comes from
// the frame header, which the probe vouches for: lookup only matches an
// entry this server itself filed under that key.
func (c *conn) handleSubmit(f wire.Frame) {
	t0 := time.Now()
	ts, ok := c.admit(f.JobID)
	if !ok {
		return
	}

	isRef := f.Type == wire.FrameSubmitRef
	var fp, handle, traceID uint64
	var err error
	if isRef {
		fp, handle, traceID, err = f.DecodeSubmitRef()
	} else {
		c.scratchOff, c.scratchRefs, traceID, err = f.DecodeSubmitInto(&c.scratch, c.scratchOff, c.scratchRefs, wire.DefaultMaxElems)
	}
	if err != nil {
		// The frame itself was well-delimited, so the stream stays in
		// sync: reject the job, keep the connection.
		c.release(ts)
		c.sendError(f.JobID, err.Error())
		return
	}
	decodeDone := time.Now()

	var canon *trace.Loop
	hit := isRef
	if isRef {
		if canon = c.srv.intern.Lookup(fp, handle); canon == nil {
			// Evicted, displaced by a colliding pattern, or issued before a
			// restart. The submitter still has the loop and falls back to a
			// full SUBMIT; a stale handle never runs another pattern.
			c.srv.handleGone.Add(1)
			c.release(ts)
			c.sendError(f.JobID, fmt.Sprintf("%sno handle %d under fingerprint %016x", wire.PatternGonePrefix, handle, fp))
			return
		}
		c.srv.handleHits.Add(1)
		handle = 0 // the submitter holds it already; the RESULT need not repeat it
	} else {
		fp = c.scratch.Fingerprint()
		canon, handle, hit = c.srv.intern.Canonical(fp, &c.scratch)
	}
	if hit {
		c.srv.interned.Add(1)
	}

	// Every accepted job carries a timeline. A submitter-assigned trace ID
	// (a tracing client, or the gateway forwarding its own) is kept so the
	// job's timelines stitch across tiers; otherwise one is generated here.
	if traceID == 0 {
		traceID = obs.NewTraceID()
	}
	tl := tlPool.Get().(*obs.Timeline)
	tl.Reset()
	tl.TraceID = traceID
	tl.Add(obs.StageDecode, decodeDone.Sub(t0))
	tl.Add(obs.StageIntern, time.Since(decodeDone))

	if c.serveInline(canon, fp, f.JobID, handle, tl, t0, ts) {
		return
	}
	w, err := c.srv.disp.Dispatch(canon, fp, c.srv.getDst(canon.NumElems), tl, ts.name)
	if err != nil {
		tlPool.Put(tl)
		c.release(ts)
		if errors.Is(err, ErrOverloaded) {
			c.sendBusy(f.JobID, wire.BusyUpstream)
		} else {
			c.sendError(f.JobID, err.Error())
		}
		return
	}
	c.jobWG.Add(1)
	jobID := f.JobID
	go func() {
		defer c.jobWG.Done()
		defer c.release(ts)
		res, err := w.Wait()
		if err != nil {
			// Exhaustion becomes BUSY (back off and retry); anything else
			// is a job-scoped ERROR. Either way the destination array may
			// still be referenced by a failed leg, so it is not recycled.
			tlPool.Put(tl)
			if errors.Is(err, ErrOverloaded) {
				c.sendBusy(jobID, wire.BusyUpstream)
			} else {
				c.sendError(jobID, err.Error())
			}
			return
		}
		// The frame lends the result array; the write loop recycles it
		// for a later submission's destination once the frame is freed.
		c.sendResult(c.lendResult(jobID, &res, handle, c.srv.recycle, tl), tl, t0)
	}()
}

// serveInline answers one admitted, interned submission on the read loop
// when the dispatcher holds a verified resident total for it: the RESULT
// frame lends that total, admission is released and the frame queued —
// no engine queue, worker, waiter goroutine or destination array. The
// total is the resident's own immutable vector, so the frame carries no
// recycler. False means nothing was sent and the job takes the engine
// path.
func (c *conn) serveInline(l *trace.Loop, fp, jobID, handle uint64, tl *obs.Timeline, t0 time.Time, ts *tenantState) bool {
	if c.srv.resident == nil {
		return false
	}
	res, ok := c.srv.resident.ServeResident(l, fp, ts.name)
	if !ok {
		return false
	}
	buf := c.lendResult(jobID, &res, handle, nil, tl)
	tl.Add(obs.StageExecute, res.Elapsed)
	c.srv.inlined.Add(1)
	c.release(ts)
	c.sendResult(buf, tl, t0)
	return true
}

// lendResult encodes res into a pooled frame that lends res.Values to the
// write loop (wire.Buffer.LendResult), which hands the array to recycle,
// when non-nil, once the frame is freed. The encode it attributes covers
// the frame's head and tail only: the array goes to the kernel in the
// write stage.
func (c *conn) lendResult(jobID uint64, res *engine.Result, handle uint64, recycle func([]float64), tl *obs.Timeline) *wire.Buffer {
	buf := wire.GetBuffer()
	encStart := time.Now()
	buf.LendResult(jobID, res, handle, recycle)
	tl.Add(obs.StageEncode, time.Since(encStart))
	return buf
}

// admit charges one job against the admission budgets, checked from the
// narrowest scope outward — per-connection in-flight, the connection's
// tenant (in-flight quota, then token bucket), then the global in-flight
// bound — answering BUSY itself when any is exhausted, with the scoped
// code (BusyConn, BusyTenant, BusyGlobal) so the client knows what to
// back off from. A later gate's rejection rolls back every earlier
// charge, including refunding the rate token, so a rejected job leaves
// no residue in any budget. This is the single admission path for every
// job-carrying frame type (SUBMIT, STATSREQ and the session operations
// alike); on success it returns the tenant it charged, which
// the caller must hand to release exactly once.
func (c *conn) admit(jobID uint64) (*tenantState, bool) {
	if c.inflight.Load() >= int64(c.srv.cfg.MaxInflightPerConn) {
		c.sendBusy(jobID, wire.BusyConn)
		return nil, false
	}
	ts := c.tenant
	if ts.maxInflight > 0 && ts.inflight.Add(1) > ts.maxInflight {
		ts.inflight.Add(-1)
		ts.busy.Add(1)
		c.sendBusy(jobID, wire.BusyTenant)
		return nil, false
	}
	if ts.bucket != nil && !ts.bucket.take() {
		if ts.maxInflight > 0 {
			ts.inflight.Add(-1)
		}
		ts.busy.Add(1)
		c.sendBusy(jobID, wire.BusyTenant)
		return nil, false
	}
	if c.srv.inflight.Add(1) > int64(c.srv.cfg.MaxInflightGlobal) {
		c.srv.inflight.Add(-1)
		if ts.bucket != nil {
			ts.bucket.refund()
		}
		if ts.maxInflight > 0 {
			ts.inflight.Add(-1)
		}
		c.sendBusy(jobID, wire.BusyGlobal)
		return nil, false
	}
	c.inflight.Add(1)
	return ts, true
}

// release returns one admitted job's charges: the connection's, the
// tenant's admit charged (a later HELLO may have rebound the
// connection), and the global one.
func (c *conn) release(ts *tenantState) {
	c.inflight.Add(-1)
	if ts.maxInflight > 0 {
		ts.inflight.Add(-1)
	}
	c.srv.inflight.Add(-1)
}

// handleOpenSession admits, decodes, opens and installs one streaming
// session on the read loop, like the deltas and the close that may be
// pipelined behind it: a connection's session frames are answered in
// arrival order. Beyond the in-flight budgets, a loop whose resident
// footprint alone exceeds the store's byte budget draws BUSY(BusySession)
// before any state is built and evicts nobody; any other open fits once
// the store has evicted to make room. The open is one sequential pass
// over at most one frame's references, the bound a max or min apply
// already puts on the read loop.
func (c *conn) handleOpenSession(f wire.Frame) {
	t0 := time.Now()
	ts, ok := c.admit(f.JobID)
	if !ok {
		return
	}
	defer c.release(ts)
	sd, isSession := c.srv.disp.(SessionDispatcher)
	if !isSession {
		// The gateway's routed dispatcher cannot pin resident state to
		// one backend; job-scoped refusal, the connection lives.
		c.sendError(f.JobID, "sessions unsupported by this peer")
		return
	}
	// The session adopts the loop the frame decodes into: one copy of
	// the pattern per open, sized exactly.
	l := new(trace.Loop)
	sid, _, _, err := f.DecodeOpenSessionInto(l, nil, nil, wire.DefaultMaxElems)
	if err != nil {
		c.sendError(f.JobID, err.Error())
		return
	}
	decodeDone := time.Now()
	key := sessKey{conn: c.id, sid: sid}
	if c.srv.sessions.get(key) != nil {
		c.sendError(f.JobID, fmt.Sprintf("session %d already open on this connection", sid))
		return
	}
	if int64(reduction.DeltaStateBytes(l)) > c.srv.sessions.maxBytes {
		c.sendBusy(f.JobID, wire.BusySession)
		return
	}
	dst := c.srv.getDst(l.NumElems)
	es, res, err := sd.OpenSession(l, dst, ts.name)
	if err != nil {
		c.srv.dsts.PutFloat64(dst)
		c.sendError(f.JobID, err.Error())
		return
	}
	c.srv.sessions.install(&serverSession{key: key, es: es, elems: l.NumElems, bytes: int64(es.Bytes())})
	tl := tlPool.Get().(*obs.Timeline)
	tl.Reset()
	tl.TraceID = obs.NewTraceID()
	tl.Add(obs.StageDecode, decodeDone.Sub(t0))
	tl.Add(obs.StageExecute, res.Elapsed)
	c.sendResult(c.lendResult(f.JobID, &res, 0, c.srv.recycle, tl), tl, t0)
}

// handleDelta admits and decodes one delta batch, resolves its session
// (touching the TTL clock and CLOCK bit), and applies it on the read
// loop: an apply costs microseconds, less than a goroutine hand-off, and
// a batch is bounded by wire.DefaultMaxFrame. An unknown, expired or evicted
// session draws the typed session-gone ERROR — never a stale sum.
func (c *conn) handleDelta(f wire.Frame) {
	t0 := time.Now()
	ts, ok := c.admit(f.JobID)
	if !ok {
		return
	}
	var sid uint64
	var err error
	sid, c.scratchDelta, err = f.DecodeDelta(c.scratchDelta)
	if err != nil {
		c.release(ts)
		c.sendError(f.JobID, err.Error())
		return
	}
	decodeDone := time.Now()
	ss := c.srv.sessions.get(sessKey{conn: c.id, sid: sid})
	if ss == nil {
		c.release(ts)
		c.sendError(f.JobID, fmt.Sprintf("%sno session %d on this connection", wire.SessionGonePrefix, sid))
		return
	}
	dst := c.srv.getDst(ss.elems)
	res, err := ss.es.Apply(c.scratchDelta, dst)
	if err != nil {
		c.srv.dsts.PutFloat64(dst)
		c.release(ts)
		if errors.Is(err, engine.ErrSessionClosed) {
			// Evicted between the lookup above and the apply; the client
			// re-opens rather than trusting stale state.
			c.sendError(f.JobID, fmt.Sprintf("%ssession %d evicted", wire.SessionGonePrefix, sid))
		} else {
			c.sendError(f.JobID, err.Error())
		}
		return
	}
	c.srv.inlined.Add(1)
	tl := tlPool.Get().(*obs.Timeline)
	tl.Reset()
	tl.TraceID = obs.NewTraceID()
	tl.Add(obs.StageDecode, decodeDone.Sub(t0))
	tl.Add(obs.StageExecute, res.Elapsed)
	buf := c.lendResult(f.JobID, &res, 0, c.srv.recycle, tl)
	c.release(ts)
	c.sendResult(buf, tl, t0)
}

// handleCloseSession retires one session on the read loop, answering an
// empty RESULT that carries the final generation. A connection's deltas
// are applied only on this same read loop (handleDelta), so the teardown
// never waits on an apply of this connection: every delta pipelined
// before the close has been answered.
func (c *conn) handleCloseSession(f wire.Frame) {
	ts, ok := c.admit(f.JobID)
	if !ok {
		return
	}
	defer c.release(ts)
	sid, err := f.DecodeCloseSession()
	if err != nil {
		c.sendError(f.JobID, err.Error())
		return
	}
	ss, found := c.srv.sessions.close(sessKey{conn: c.id, sid: sid})
	if !found {
		c.sendError(f.JobID, fmt.Sprintf("%sno session %d on this connection", wire.SessionGonePrefix, sid))
		return
	}
	res := engine.Result{Scheme: "session", SessionGen: ss.es.Gen()}
	buf := wire.GetBuffer()
	buf.LendResult(f.JobID, &res, 0, nil)
	c.send(buf)
}

// closeTimelines is the write loop's after-write hook: a RESULT's
// write_wait runs from its send to the start of the write that carries
// it, write is that write, and the job is observed once the write
// returns. A connection whose write failed observes nothing more; its
// read loop notices the dead socket.
func (c *conn) closeTimelines(notes []outNote, start, end time.Time) {
	for _, n := range notes {
		if n.tl != nil {
			n.tl.Add(obs.StageWriteWait, start.Sub(n.sent))
			n.tl.Add(obs.StageWrite, end.Sub(start))
			c.srv.observe(n.tl, end.Sub(n.t0))
			tlPool.Put(n.tl)
		}
	}
}

// getDst returns a destination array of length n from the server's
// pool. Destination recycling plus pooled frame buffers is what keeps
// the per-job steady state of the serving path allocation-free.
func (s *Server) getDst(n int) []float64 { return s.dsts.Float64(n) }
