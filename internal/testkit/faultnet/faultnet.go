// Package faultnet wraps a net.Listener so the connections it accepts
// misbehave the way a real network may and a loopback socket rarely
// does: every Write reaches the peer in pieces of 1..k bytes, one
// underlying write each, and every Read returns at most 1..k bytes. Both
// are legal for a stream socket, and every frame parser and write loop
// above it must be indifferent to them. The piece sizes are drawn from a
// seeded source, so a failing run replays from its seed.
//
// Stalls, resets and half-open connections are not modelled yet.
package faultnet

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
)

// Listen wraps ln: connection i it accepts draws its piece sizes from
// seed+i, each at most maxPiece bytes (at least 1).
func Listen(ln net.Listener, seed int64, maxPiece int) net.Listener {
	return &listener{Listener: ln, seed: seed, maxPiece: maxPiece}
}

type listener struct {
	net.Listener
	seed     int64
	maxPiece int
	accepted atomic.Int64
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(c, l.seed+l.accepted.Add(1)-1, l.maxPiece), nil
}

// Wrap returns c with its writes split and its reads shortened to pieces
// of 1..maxPiece bytes drawn from seed.
func Wrap(c net.Conn, seed int64, maxPiece int) net.Conn {
	maxPiece = max(maxPiece, 1)
	return &conn{
		Conn:  c,
		read:  pieces{rng: rand.New(rand.NewSource(seed)), max: maxPiece},
		write: pieces{rng: rand.New(rand.NewSource(^seed)), max: maxPiece},
	}
}

type conn struct {
	net.Conn
	read, write pieces
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
	return c.Conn.Read(b)
}

// Write sends b one piece per underlying write.
func (c *conn) Write(b []byte) (int, error) {
	written := 0
	for len(b) > 0 {
		n, err := c.Conn.Write(b[:c.write.next(len(b))])
		written += n
		if err != nil {
			return written, err
		}
		b = b[n:]
	}
	return written, nil
}
