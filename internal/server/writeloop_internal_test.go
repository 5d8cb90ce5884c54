package server

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

// writeLoopConn is a conn with just what send and its write loop touch.
func writeLoopConn(nc net.Conn) *conn {
	c := &conn{nc: nc}
	c.w = wire.NewWriter(nc, c.closeTimelines, nil)
	return c
}

// connPairs returns both transports the write loop has to serve: net.Pipe
// (no writev: the batch is gathered into one Write) and loopback TCP (the
// vectored path).
func connPairs(t *testing.T) map[string][2]net.Conn {
	t.Helper()
	p1, p2 := net.Pipe()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string][2]net.Conn{"pipe": {p1, p2}, "tcp": {accepted, dialed}}
	t.Cleanup(func() {
		for _, p := range pairs {
			p[0].Close()
			p[1].Close()
		}
	})
	return pairs
}

// frameValue is what element i of sender s's k-th frame must hold.
func frameValue(s, k, i int) float64 { return float64(s*1_000_000 + k*1000 + i%1000) }

// sendFrames queues n RESULT frames of 30 B to 100 KB as sender s: the
// job ID names the sender and the sequence number, the values follow from
// them, so the peer can tell an intact, in-order frame from any other.
func sendFrames(c *conn, s, n int) {
	rng := rand.New(rand.NewSource(int64(s)))
	for k := 0; k < n; k++ {
		size := 0
		if k%3 != 0 {
			size = 1 << rng.Intn(14) // up to 8192 values = 64 KB
		}
		if k%50 == 7 {
			size = 12_500 // 100 KB
		}
		res := engine.Result{Values: make([]float64, size)}
		for i := range res.Values {
			res.Values[i] = frameValue(s, k, i)
		}
		buf := wire.GetBuffer()
		buf.B = wire.AppendResult(buf.B, uint64(s)<<32|uint64(k), &res)
		c.send(buf)
	}
}

// TestWriteLoopKeepsFramesIntactAndOrdered has 8 goroutines queue 200
// frames each: the peer must parse exactly 1 600 intact frames, each
// sender's in the order it sent them, whether a batch leaves as one writev
// or as a run of Writes.
func TestWriteLoopKeepsFramesIntactAndOrdered(t *testing.T) {
	const senders, each = 8, 200
	for name, pair := range connPairs(t) {
		c := writeLoopConn(pair[0])
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sendFrames(c, s, each)
			}()
		}
		go func() {
			wg.Wait()
			c.w.Close()
		}()

		pair[1].SetReadDeadline(time.Now().Add(60 * time.Second))
		r := wire.NewReader(pair[1], 0)
		next := make([]int, senders)
		var dst []float64
		for got := 0; got < senders*each; got++ {
			f, err := r.Next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, got, err)
			}
			s, k := int(f.JobID>>32), int(uint32(f.JobID))
			if s >= senders || k != next[s] {
				t.Fatalf("%s: frame %d is sender %d's #%d, want its #%d", name, got, s, k, next[min(s, senders-1)])
			}
			next[s]++
			res, err := f.DecodeResult(dst)
			if err != nil {
				t.Fatalf("%s: sender %d frame %d: %v", name, s, k, err)
			}
			dst = res.Values
			for i, v := range res.Values {
				if v != frameValue(s, k, i) {
					t.Fatalf("%s: sender %d frame %d element %d = %v, want %v", name, s, k, i, v, frameValue(s, k, i))
				}
			}
		}
		c.w.Close()
	}
}

// TestWriteLoopDrainsAfterPeerCloses cuts the peer mid-stream: the write
// fails, and from then on the loop must keep taking (and freeing) every
// queued buffer, so no sender stays blocked on a dead connection and the
// queue is empty when the loop exits.
func TestWriteLoopDrainsAfterPeerCloses(t *testing.T) {
	const senders, each = 8, 200
	for name, pair := range connPairs(t) {
		c := writeLoopConn(pair[0])
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sendFrames(c, s, each)
			}()
		}
		r := wire.NewReader(pair[1], 0)
		for i := 0; i < 20; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
		}
		pair[1].Close()

		done := make(chan struct{})
		go func() {
			wg.Wait()
			c.w.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: senders still blocked 60s after the peer closed", name)
		}
		if n := c.w.Queued(); n != 0 {
			t.Fatalf("%s: %d buffers left in the queue", name, n)
		}
	}
}
