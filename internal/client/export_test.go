package client

import (
	"net"
	"time"
)

// MaxHandles exposes the per-connection handle-table bound to the
// package's external tests.
const MaxHandles = maxHandles

// DialVia is Dial opening every pooled connection through dial, so a test
// can wrap the socket the client writes to.
func DialVia(addr string, cfg Config, dial func(network, addr string, timeout time.Duration) (net.Conn, error)) (*Client, error) {
	return dialVia(addr, cfg, dial)
}

// QueuedFrames reports how many frames wait for the write loop of pool
// slot i's live connection, and false when the slot has none.
func QueuedFrames(c *Client, i int) (func() int, bool) {
	pc := c.conns[i]
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.s == nil {
		return nil, false
	}
	return pc.s.w.Queued, true
}

// Unread reports whether h holds an outcome nobody has received yet — a
// second resolution of a job already waited for.
func Unread(h *Handle) bool { return len(h.done) > 0 }
