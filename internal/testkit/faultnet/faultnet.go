// Package faultnet wraps a net.Listener so the connections it accepts
// misbehave the way a real network may and a loopback socket rarely
// does: every Write reaches the peer in pieces of 1..k bytes, one
// underlying write each, and every Read returns at most 1..k bytes. Both
// are legal for a stream socket, and every frame parser and write loop
// above it must be indifferent to them. ListenResetting adds resets: a
// connection closes itself once a drawn number of bytes has crossed it,
// mid-frame as often as not. Stall wraps one connection whose reads
// stop partway, for a while or until it is closed: its peer's writes
// fill the socket buffers and then block, as against a client that
// stopped reading. The piece sizes, reset points and stalls are drawn
// from a seeded source, so a failing run replays from its seed.
//
// Half-open connections are not modelled yet.
package faultnet

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Listen wraps ln: connection i it accepts draws its piece sizes from
// seed+i, each at most maxPiece bytes (at least 1).
func Listen(ln net.Listener, seed int64, maxPiece int) net.Listener {
	return &listener{Listener: ln, seed: seed, maxPiece: maxPiece}
}

// ListenResetting is Listen whose connections also reset: connection i
// closes itself once a byte count drawn from seed+i in
// [minBytes, maxBytes] has crossed it, reads and writes together. The
// transfer that reaches the count is cut there, and everything after it
// fails as on a closed socket.
func ListenResetting(ln net.Listener, seed int64, maxPiece, minBytes, maxBytes int) net.Listener {
	return &listener{Listener: ln, seed: seed, maxPiece: maxPiece, minBytes: minBytes, maxBytes: max(maxBytes, minBytes, 1)}
}

type listener struct {
	net.Listener
	seed               int64
	maxPiece           int
	minBytes, maxBytes int // reset window; maxBytes 0 never resets
	accepted           atomic.Int64
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	seed := l.seed + l.accepted.Add(1) - 1
	fc := wrap(c, seed, l.maxPiece)
	if l.maxBytes > 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		fc.left.Store(int64(l.minBytes + rng.Intn(l.maxBytes-l.minBytes+1)))
	}
	return fc, nil
}

// Wrap returns c with its writes split and its reads shortened to pieces
// of 1..maxPiece bytes drawn from seed.
func Wrap(c net.Conn, seed int64, maxPiece int) net.Conn { return wrap(c, seed, maxPiece) }

func wrap(c net.Conn, seed int64, maxPiece int) *conn {
	maxPiece = max(maxPiece, 1)
	fc := &conn{
		Conn:  c,
		read:  pieces{rng: rand.New(rand.NewSource(seed)), max: maxPiece},
		write: pieces{rng: rand.New(rand.NewSource(^seed)), max: maxPiece},
	}
	fc.left.Store(math.MaxInt64)
	return fc
}

type conn struct {
	net.Conn
	read, write pieces
	left        atomic.Int64 // bytes until the connection resets
}

// limit cuts a transfer to the bytes the budget has left, keeping at
// least one: a spent budget has closed the socket, which then fails the
// transfer.
func (c *conn) limit(b []byte) []byte {
	return b[:min(int64(len(b)), max(c.left.Load(), 1))]
}

// spend charges n transferred bytes to the budget and closes the socket
// once it is spent.
func (c *conn) spend(n int) {
	if c.left.Add(-int64(n)) <= 0 {
		c.Conn.Close()
	}
}

// pieces draws piece sizes for one direction; the lock lets concurrent
// callers of that direction share it.
type pieces struct {
	mu  sync.Mutex
	rng *rand.Rand
	max int
}

// next returns the size of the next piece of an n-byte transfer.
func (p *pieces) next(n int) int {
	p.mu.Lock()
	k := 1 + p.rng.Intn(p.max)
	p.mu.Unlock()
	return min(k, n)
}

// Read returns at most one piece.
func (c *conn) Read(b []byte) (int, error) {
	if len(b) > 1 {
		b = b[:c.read.next(len(b))]
	}
	n, err := c.Conn.Read(c.limit(b))
	c.spend(n)
	return n, err
}

// Write sends b one piece per underlying write.
func (c *conn) Write(b []byte) (int, error) {
	written := 0
	for len(b) > 0 {
		n, err := c.Conn.Write(c.limit(b[:c.write.next(len(b))]))
		written += n
		c.spend(n)
		if err != nil {
			return written, err
		}
		b = b[n:]
	}
	return written, nil
}

// Stall wraps c so that its reads stop once a byte count drawn from seed
// in [minBytes, maxBytes] has been read: the Read that reaches the count
// returns the bytes up to it, and the next one blocks for a span drawn
// from seed in [maxSpan/2, maxSpan] — until Close when maxSpan is 0 —
// before reading on. Writes pass through. Only this end is wrapped: a
// peer writing into the stall keeps its own socket, so a server behind a
// plain listener still writes with writev. Reads must come from one
// goroutine at a time.
func Stall(c net.Conn, seed int64, minBytes, maxBytes int, maxSpan time.Duration) net.Conn {
	rng := rand.New(rand.NewSource(seed))
	sc := &stallConn{Conn: c, left: minBytes + rng.Intn(max(maxBytes-minBytes, 0)+1), closed: make(chan struct{})}
	if maxSpan > 0 {
		sc.span = maxSpan/2 + time.Duration(rng.Int63n(int64(maxSpan-maxSpan/2)+1))
	}
	return sc
}

type stallConn struct {
	net.Conn
	left      int           // bytes until the stall; -1 once it is over
	span      time.Duration // 0: until Close
	closed    chan struct{}
	closeOnce sync.Once
}

// Read reads up to the stall point, waits out the stall, then reads on.
func (c *stallConn) Read(b []byte) (int, error) {
	if c.left == 0 {
		c.left = -1
		c.wait()
	}
	if c.left > 0 && len(b) > c.left {
		b = b[:c.left]
	}
	n, err := c.Conn.Read(b)
	if c.left > 0 {
		c.left -= n
	}
	return n, err
}

// wait blocks for the stall's span, or until Close.
func (c *stallConn) wait() {
	if c.span == 0 {
		<-c.closed
		return
	}
	t := time.NewTimer(c.span)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closed:
	}
}

// Close closes the connection, then ends a stall in progress, so the
// stalled Read reads on from a closed connection.
func (c *stallConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(func() { close(c.closed) })
	return err
}
