package client

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Session is a streaming reduction session: the loop ships once
// (OPEN_SESSION), then only small delta batches cross the wire
// (SUBMIT_DELTA) while the server moves its resident result by them.
//
// A session is pinned to the single TCP connection it was opened on —
// the server's resident state is keyed by that connection — so unlike
// one-shot submissions, its operations never fail over to another pool
// slot. If the connection dies, every later operation returns
// ErrSessionGone and the caller re-opens and replays.
//
// Delta batches may be pipelined with SubmitDeltaAsync: the server
// applies a connection's batches on its read loop in arrival order, and
// a CLOSE_SESSION after them answers once they are applied. Batches sent
// from several goroutines at once arrive in whatever order their sends
// interleave, so serialize with SubmitDelta when order matters across
// goroutines.
type Session struct {
	s     *netSession
	id    uint64
	elems int
	gen   uint64
	done  bool
}

// OpenSession registers l as a streaming session on the server and
// blocks for the initial reduction (generation 1). The loop is the
// client's to keep: the server owns its own copy from here on, and
// subsequent SubmitDelta calls mutate only that copy.
func (c *Client) OpenSession(l *trace.Loop) (*Session, engine.Result, error) {
	if l == nil {
		return nil, engine.Result{}, errors.New("client: nil loop")
	}
	pc, err := c.pick()
	if err != nil {
		return nil, engine.Result{}, err
	}
	s, err := pc.ensure()
	if err != nil {
		return nil, engine.Result{}, err
	}
	p := &pend{done: make(chan outcome, 1)}
	id, err := s.register(p)
	if err != nil {
		return nil, engine.Result{}, err
	}
	s.pendMu.Lock()
	s.nextSID++
	sid := s.nextSID
	s.pendMu.Unlock()
	buf := wire.GetBuffer()
	buf.B = wire.AppendOpenSession(buf.B, id, sid, l)
	s.send(buf)
	out := <-p.done
	if out.err != nil {
		return nil, engine.Result{}, out.err
	}
	return &Session{s: s, id: sid, elems: l.NumElems, gen: out.res.SessionGen}, out.res, nil
}

// SubmitDelta streams one delta batch and blocks for the rolling
// reduction. An empty batch is a pure read of the current result.
func (s *Session) SubmitDelta(deltas []reduction.RefDelta) (engine.Result, error) {
	return s.SubmitDeltaInto(deltas, nil)
}

// SubmitDeltaInto is SubmitDelta decoding the result into dst when it
// has the capacity.
func (s *Session) SubmitDeltaInto(deltas []reduction.RefDelta, dst []float64) (engine.Result, error) {
	h, err := s.SubmitDeltaAsyncInto(deltas, dst)
	if err != nil {
		return engine.Result{}, err
	}
	res, err := h.Wait()
	if err == nil {
		s.gen = res.SessionGen
	}
	return res, err
}

// SubmitDeltaAsync enqueues one delta batch and returns a Handle without
// waiting, mirroring SubmitAsync. See the type comment for the ordering
// caveat on pipelined batches.
func (s *Session) SubmitDeltaAsync(deltas []reduction.RefDelta) (*Handle, error) {
	return s.SubmitDeltaAsyncInto(deltas, nil)
}

// SubmitDeltaAsyncInto is SubmitDeltaAsync with a caller-provided
// destination array; dst must not be touched until Wait returns.
func (s *Session) SubmitDeltaAsyncInto(deltas []reduction.RefDelta, dst []float64) (*Handle, error) {
	if s.done {
		return nil, fmt.Errorf("%w: closed by this client", ErrSessionGone)
	}
	p := &pend{done: make(chan outcome, 1), dst: dst}
	id, err := s.s.register(p)
	if err != nil {
		// The pinned connection is dead; the resident state went with it.
		return nil, fmt.Errorf("%w: %v", ErrSessionGone, err)
	}
	buf := wire.GetBuffer()
	buf.B = wire.AppendDelta(buf.B, id, s.id, deltas)
	s.s.send(buf)
	return &Handle{done: p.done}, nil
}

// Close retires the session on the server and blocks for the
// acknowledgement, which carries the final generation. Closing an
// already-closed session is a no-op; a session whose server side is
// already gone (evicted, expired, connection lost) closes cleanly too —
// either way the state is released.
func (s *Session) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	p := &pend{done: make(chan outcome, 1)}
	id, err := s.s.register(p)
	if err != nil {
		return nil // connection gone, nothing resident to release
	}
	buf := wire.GetBuffer()
	buf.B = wire.AppendCloseSession(buf.B, id, s.id)
	s.s.send(buf)
	out := <-p.done
	if out.err != nil {
		if errors.Is(out.err, ErrSessionGone) || errors.Is(out.err, ErrConnLost) {
			return nil
		}
		return out.err
	}
	s.gen = out.res.SessionGen
	return nil
}

// Gen returns the last generation this client observed: 1 after open,
// +1 per acknowledged delta batch.
func (s *Session) Gen() uint64 { return s.gen }
