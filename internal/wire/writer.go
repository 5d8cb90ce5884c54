package wire

import (
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// MaxBatch is how many encoded frames may wait for a Writer before Send
// blocks, and so the most one write carries.
const MaxBatch = 64

// Writer is the write side of a connection, the counterpart of Reader:
// any number of goroutines queue pooled frame buffers with Send, and one
// write loop takes everything queued (at most MaxBatch frames) and hands
// it to the connection in one write — writev on a TCP or Unix socket, the
// frames gathered into one Write on anything else — then frees the
// buffers. Frames leave in queue order, so one goroutine's frames arrive
// in the order it sent them. No timer forms a batch: a Send makes the
// loop runnable, and it runs when the sender parks, carrying everything
// queued since.
//
// Each frame carries a note of type N, which the loop hands back to the
// owner after the write that carried it. After a write error the loop
// writes nothing more but keeps taking and freeing frames, so no sender
// blocks on a dead connection, until Close.
type Writer[N any] struct {
	dst      io.Writer
	vectored bool
	after    func(notes []N, start, end time.Time)
	failed   func(error)

	mu     sync.Mutex
	ready  sync.Cond // the loop waits here for a frame or Close
	room   sync.Cond // senders wait here while MaxBatch frames are queued
	q      []queued[N]
	closed bool
	done   chan struct{}
}

type queued[N any] struct {
	buf  *Buffer
	note N
}

// NewWriter starts a write loop over dst. after, when non-nil, runs on
// the loop after every successful write, with the notes of the frames it
// carried, in queue order, and the write's start and end; frames that
// are dropped after a write error never reach it. failed, when non-nil,
// receives the first write error, once, on a goroutine of its own, so it
// may Close the Writer.
func NewWriter[N any](dst io.Writer, after func(notes []N, start, end time.Time), failed func(error)) *Writer[N] {
	_, vectored := dst.(syscall.Conn)
	w := &Writer[N]{
		dst:      dst,
		vectored: vectored,
		after:    after,
		failed:   failed,
		q:        make([]queued[N], 0, MaxBatch),
		done:     make(chan struct{}),
	}
	w.ready.L = &w.mu
	w.room.L = &w.mu
	go w.loop()
	return w
}

// Send queues buf, which the Writer frees once written, with its note.
// It blocks while MaxBatch frames are waiting. After Close it frees buf
// and returns at once.
func (w *Writer[N]) Send(buf *Buffer, note N) {
	w.mu.Lock()
	for len(w.q) == MaxBatch && !w.closed {
		w.room.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		buf.Free()
		return
	}
	w.q = append(w.q, queued[N]{buf, note})
	w.ready.Signal()
	w.mu.Unlock()
}

// Close stops accepting frames, lets the loop write (or, after an error,
// free) everything already queued, and returns once the loop has exited.
// It is idempotent.
func (w *Writer[N]) Close() {
	w.mu.Lock()
	w.closed = true
	w.ready.Signal()
	w.room.Broadcast()
	w.mu.Unlock()
	<-w.done
}

// Queued reports how many frames wait for the loop.
func (w *Writer[N]) Queued() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.q)
}

func (w *Writer[N]) loop() {
	defer close(w.done)
	// The batch being written, swapped with the queue under the lock, and
	// its notes, byte slices and the view over those that WriteTo
	// consumes as it writes: allocated once per connection.
	var (
		batch  = make([]queued[N], 0, MaxBatch)
		notes  [MaxBatch]N
		iov    [MaxBatch][]byte
		vec    net.Buffers
		gather []byte
		err    error
	)
	for {
		w.mu.Lock()
		for len(w.q) == 0 && !w.closed {
			w.ready.Wait()
		}
		if len(w.q) == 0 {
			w.mu.Unlock()
			return
		}
		batch, w.q = w.q, batch
		w.room.Broadcast()
		w.mu.Unlock()

		if err == nil {
			for i, f := range batch {
				notes[i], iov[i] = f.note, f.buf.B
			}
			start := time.Now()
			if w.vectored {
				vec = iov[:len(batch)]
				_, err = vec.WriteTo(w.dst)
			} else {
				gather = gather[:0]
				for _, b := range iov[:len(batch)] {
					gather = append(gather, b...)
				}
				_, err = w.dst.Write(gather)
			}
			end := time.Now()
			if err != nil && w.failed != nil {
				go w.failed(err)
			} else if err == nil && w.after != nil {
				w.after(notes[:len(batch)], start, end)
			}
		}
		for _, f := range batch {
			f.buf.Free()
		}
		// The pools own the buffers now; do not pin them from here.
		clear(notes[:len(batch)])
		clear(iov[:len(batch)])
		clear(batch)
		batch = batch[:0]
	}
}
