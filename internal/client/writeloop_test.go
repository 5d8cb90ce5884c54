package client_test

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/trace"
	"repro/internal/wire"
)

// heldConn is a client socket a test can watch and stall. Once armed it
// counts the writes the client makes and records their bytes, and it
// parks the first of them until released — or until the client closes
// it. With fail set, the released write delivers the first two bytes of
// its first frame's length prefix and then fails, as a connection cut
// while a batch is on its way would, before the server can have read a
// whole frame.
type heldConn struct {
	net.Conn
	fail bool

	mu     sync.Mutex
	armed  bool
	writes int
	got    bytes.Buffer

	entered, release, closed chan struct{}
	closeOnce                sync.Once
}

func (c *heldConn) arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

func (c *heldConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if !c.armed {
		c.mu.Unlock()
		return c.Conn.Write(p)
	}
	c.writes++
	held := c.writes == 1
	c.mu.Unlock()
	if held {
		close(c.entered)
		select {
		case <-c.release:
		case <-c.closed:
			return 0, net.ErrClosed
		}
		if c.fail {
			n, _ := c.Conn.Write(p[:2])
			c.record(p[:n])
			return n, errors.New("injected write failure")
		}
	}
	c.record(p)
	return c.Conn.Write(p)
}

func (c *heldConn) record(p []byte) {
	c.mu.Lock()
	c.got.Write(p)
	c.mu.Unlock()
}

func (c *heldConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// stats returns the writes counted and the bytes recorded since arm.
func (c *heldConn) stats() (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, bytes.Clone(c.got.Bytes())
}

// heldDialer opens every pooled connection as a heldConn and remembers
// them in dial order; failFirst makes the first one's held write fail.
type heldDialer struct {
	failFirst bool
	mu        sync.Mutex
	conns     []*heldConn
}

func (d *heldDialer) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c := &heldConn{
		Conn:    nc,
		fail:    d.failFirst && len(d.conns) == 0,
		entered: make(chan struct{}),
		release: make(chan struct{}),
		closed:  make(chan struct{}),
	}
	d.conns = append(d.conns, c)
	return c, nil
}

func (d *heldDialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// stalledClient boots a daemon and a one-connection client over a
// heldDialer, and returns them with the goroutine count taken before the
// dial and the armed connection: the next write the client makes parks.
func stalledClient(t *testing.T, failFirst bool) (*client.Client, *heldDialer, *heldConn, int) {
	t.Helper()
	d := testkit.StartDaemon(t, engine.Config{}, server.Config{})
	base := runtime.NumGoroutine()
	hd := &heldDialer{failFirst: failFirst}
	cl, err := client.DialVia(d.Addr, client.Config{Conns: 1}, hd.dial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	hc := hd.conns[0]
	hc.arm()
	return cl, hd, hc, base
}

// queueBatch submits wire.MaxBatch distinct tiny loops without waiting
// and returns them with their handles. The first frame's write parks in
// hc, so the rest queue behind it.
func queueBatch(t *testing.T, cl *client.Client, hc *heldConn) ([]*trace.Loop, []*client.Handle) {
	t.Helper()
	loops := make([]*trace.Loop, wire.MaxBatch)
	handles := make([]*client.Handle, wire.MaxBatch)
	for i := range loops {
		loops[i] = tinyLoop(i)
		h, err := cl.SubmitAsync(loops[i])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[i] = h
	}
	select {
	case <-hc.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the write loop never wrote the queued frames")
	}
	return loops, handles
}

// settle waits until the process is back to base goroutines: every loop
// the client started, and the server's for that connection, has exited.
func settle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before the client dialed:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestPipelinedSubmitsShareWrites holds the write loop in its first
// write while a window of submissions queues behind it: at most two
// writes carry all of them, the bytes are exactly the frames encoded one
// by one in submission order, and every job gets its own loop's sums.
func TestPipelinedSubmitsShareWrites(t *testing.T) {
	cl, _, hc, _ := stalledClient(t, false)
	loops, handles := queueBatch(t, cl, hc)
	close(hc.release)
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		assertSums(t, loops[i], res.Values)
	}
	writes, got := hc.stats()
	if writes > 2 {
		t.Errorf("%d frames took %d writes, want at most 2", len(loops), writes)
	}
	var want []byte
	for i, l := range loops {
		want = wire.AppendSubmit(want, uint64(i+1), l)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the client wrote %d bytes that differ from the %d of its frames encoded one by one", len(got), len(want))
	}
}

// TestWriteFailureMidBatchFailsEveryJob cuts the connection inside the
// write that carries a batch: every job resolves exactly once, with
// ErrConnLost, the connection's loops exit, and the next submission on
// the slot redials.
func TestWriteFailureMidBatchFailsEveryJob(t *testing.T) {
	cl, hd, hc, base := stalledClient(t, true)
	_, handles := queueBatch(t, cl, hc)
	close(hc.release)
	for i, h := range handles {
		if _, err := h.Wait(); !errors.Is(err, client.ErrConnLost) {
			t.Fatalf("job %d: %v, want ErrConnLost", i, err)
		}
	}
	settle(t, base)
	for i, h := range handles {
		if client.Unread(h) {
			t.Fatalf("job %d resolved twice", i)
		}
	}
	l := tinyLoop(7)
	res, err := cl.Submit(l)
	if err != nil {
		t.Fatalf("submit after the failure: %v", err)
	}
	assertSums(t, l, res.Values)
	if n := hd.dials(); n != 2 {
		t.Fatalf("%d dials, want 2: the failed slot must redial", n)
	}
	cl.Close()
	settle(t, base)
}

// TestCloseResolvesQueuedFrames closes the client while a batch waits
// behind a stalled write: every job resolves with ErrClosed, the write
// loop frees every queued frame and exits, and so does everything else
// the connection started.
func TestCloseResolvesQueuedFrames(t *testing.T) {
	cl, _, hc, base := stalledClient(t, false)
	_, handles := queueBatch(t, cl, hc)
	queued, ok := client.QueuedFrames(cl, 0)
	if !ok {
		t.Fatal("no live connection on slot 0")
	}
	cl.Close()
	for i, h := range handles {
		if _, err := h.Wait(); !errors.Is(err, client.ErrClosed) {
			t.Fatalf("job %d: %v, want ErrClosed", i, err)
		}
	}
	if n := queued(); n != 0 {
		t.Fatalf("%d frames left in the write queue after Close", n)
	}
	settle(t, base)
	for i, h := range handles {
		if client.Unread(h) {
			t.Fatalf("job %d resolved twice", i)
		}
	}
}
