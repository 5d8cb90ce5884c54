package wire

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateWriter records every Write as one chunk and parks the first until
// released.
type gateWriter struct {
	entered, release chan struct{}
	mu               sync.Mutex
	chunks           [][]byte
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	first := len(g.chunks) == 0
	g.chunks = append(g.chunks, bytes.Clone(p))
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return len(p), nil
}

// writerBatch is what the after-write hook saw of one write.
type writerBatch struct {
	notes      []int
	start, end time.Time
}

// testFrame is frame i of a Writer test: a SUBMIT_REF naming i.
func testFrame(i int) *Buffer {
	b := GetBuffer()
	b.B = AppendSubmitRef(b.B, uint64(i+1), uint64(i), uint64(i), 0)
	return b
}

// TestWriterBatchesBoundedAndInOrder parks the loop in the write of frame
// 0 while MaxBatch frames fill the queue and one more sender blocks
// behind them: the writes carry [0], [1..MaxBatch], [MaxBatch+1], each as
// one Write of its frames' bytes in queue order, and the hook gets each
// batch's notes in that order with the write's start and end.
func TestWriterBatchesBoundedAndInOrder(t *testing.T) {
	g := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	var batches []writerBatch
	w := NewWriter(g, func(notes []int, start, end time.Time) {
		batches = append(batches, writerBatch{append([]int(nil), notes...), start, end})
	}, nil)
	w.Send(testFrame(0), 0)
	<-g.entered
	for i := 1; i <= MaxBatch; i++ {
		w.Send(testFrame(i), i)
	}
	if n := w.Queued(); n != MaxBatch {
		t.Fatalf("%d frames queued behind the parked write, want %d", n, MaxBatch)
	}
	last := make(chan struct{})
	go func() {
		w.Send(testFrame(MaxBatch+1), MaxBatch+1)
		close(last)
	}()
	released := time.Now()
	close(g.release)
	<-last
	w.Close()

	want := [][]int{{0}, make([]int, 0, MaxBatch), {MaxBatch + 1}}
	for i := 1; i <= MaxBatch; i++ {
		want[1] = append(want[1], i)
	}
	if len(batches) != len(want) || len(g.chunks) != len(want) {
		t.Fatalf("%d hook calls and %d writes, want %d of each", len(batches), len(g.chunks), len(want))
	}
	for k, b := range batches {
		if !slices.Equal(b.notes, want[k]) {
			t.Errorf("write %d carried notes %v, want %v", k, b.notes, want[k])
		}
		var bytesWant []byte
		for _, i := range want[k] {
			bytesWant = AppendSubmitRef(bytesWant, uint64(i+1), uint64(i), uint64(i), 0)
		}
		if !bytes.Equal(g.chunks[k], bytesWant) {
			t.Errorf("write %d is %d bytes, want its %d frames' %d in order", k, len(g.chunks[k]), len(want[k]), len(bytesWant))
		}
		if b.end.Before(b.start) || (k > 0 && b.start.Before(batches[k-1].end)) {
			t.Errorf("write %d ran %v..%v, the one before it ended %v", k, b.start, b.end, batches[max(k-1, 0)].end)
		}
	}
	// The hook's times are the write's own: the parked one spans its
	// release.
	if b := batches[0]; b.start.After(released) || b.end.Before(released) {
		t.Errorf("the parked write ran %v..%v, not across its release at %v", b.start, b.end, released)
	}
}

// failWriter fails every Write and counts them.
type failWriter struct{ writes atomic.Int32 }

func (f *failWriter) Write([]byte) (int, error) {
	f.writes.Add(1)
	return 0, errors.New("broken pipe")
}

// TestWriterStopsAfterErrorAndCloses sends far more than MaxBatch frames
// into a connection whose first write fails: the loop writes once,
// reports the error once, never runs the hook, keeps taking frames so no
// sender blocks, and after Close a Send neither blocks nor panics.
func TestWriterStopsAfterErrorAndCloses(t *testing.T) {
	f := &failWriter{}
	errs := make(chan error, 4)
	var hooked atomic.Bool
	w := NewWriter(f, func([]struct{}, time.Time, time.Time) { hooked.Store(true) }, func(err error) { errs <- err })
	sent := make(chan struct{})
	go func() {
		for i := 0; i < 4*MaxBatch; i++ {
			w.Send(testFrame(i), struct{}{})
		}
		close(sent)
	}()
	select {
	case <-sent:
	case <-time.After(10 * time.Second):
		t.Fatal("a sender stayed blocked on a writer whose connection failed")
	}
	select {
	case err := <-errs:
		if err == nil || err.Error() != "broken pipe" {
			t.Fatalf("failed got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the write error was never reported")
	}
	w.Close()
	w.Close()
	w.Send(testFrame(0), struct{}{})
	if n := f.writes.Load(); n != 1 {
		t.Errorf("%d writes, want 1: the loop must stop writing after an error", n)
	}
	if len(errs) != 0 {
		t.Errorf("the error was reported %d more times", len(errs))
	}
	if hooked.Load() {
		t.Error("the after-write hook ran for a failed write")
	}
	if n := w.Queued(); n != 0 {
		t.Errorf("%d frames left queued after Close", n)
	}
}
