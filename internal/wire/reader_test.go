package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strconv"
	"testing"
	"testing/iotest"

	"repro/internal/engine"
	"repro/internal/reduction"
)

// streamFrames is the traffic the Reader's buffer management has to get
// right, as one flat byte stream with its frame boundaries: the session
// workload's 73-byte DELTA, a 20-byte SUBMIT_REF, the 8 KB and 24.8 KB
// RESULTs of the standing workloads, one frame larger than the initial
// buffer (so the reader grows mid-stream, with a partial tail to carry),
// then small frames again.
func streamFrames(t *testing.T) (stream []byte, bounds []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	result := func(id uint64, n int) []byte {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return AppendResultHandle(nil, id, &engine.Result{Values: v, Scheme: "rep", Why: "w", BatchSize: 2}, id)
	}
	deltas := []reduction.RefDelta{{Pos: 200, Ref: 3}}
	for i := 0; i < 31; i++ {
		deltas = append(deltas, reduction.RefDelta{Pos: int32(201 + i), Ref: int32(3 + i%5)})
	}
	delta := AppendDelta(nil, 1, 4, deltas)
	ref := AppendSubmitRef(nil, 2, 0x9e3779b97f4a7c15, 300, 1<<21)
	if len(delta) != 73 || len(ref) != 20 {
		t.Fatalf("fixture frames are %d and %d bytes, want 73 and 20", len(delta), len(ref))
	}
	big := result(5, 2*readBufSize/8)
	if len(big) <= readBufSize {
		t.Fatalf("the big frame (%d bytes) fits the initial buffer", len(big))
	}
	for _, f := range [][]byte{
		delta, ref, result(3, 1024), result(4, 3100), big,
		AppendBusy(nil, 6, BusyConn), delta, AppendError(nil, 7, "boom"), result(8, 3100), ref,
	} {
		stream = append(stream, f...)
		bounds = append(bounds, len(stream))
	}
	return stream, bounds
}

// cutReader returns its bytes in the chunks the cut offsets delimit.
type cutReader struct {
	b    []byte
	cuts []int // ascending offsets into the original b
	off  int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := len(c.b)
	for len(c.cuts) > 0 && c.cuts[0] <= c.off {
		c.cuts = c.cuts[1:]
	}
	if len(c.cuts) > 0 {
		n = min(n, c.cuts[0]-c.off)
	}
	n = copy(p, c.b[:n])
	c.b, c.off = c.b[n:], c.off+n
	return n, nil
}

// TestReaderStream reads one mixed stream through readers that deliver it
// a byte at a time, in halves, with the error riding the last data, and in
// chunks cut at every offset within four bytes of every frame boundary:
// however the bytes arrive, each frame must parse to what DecodeFrame
// makes of the flat bytes, and the stream must end in a clean io.EOF.
func TestReaderStream(t *testing.T) {
	stream, bounds := streamFrames(t)
	readers := map[string]func() io.Reader{
		"whole":   func() io.Reader { return bytes.NewReader(stream) },
		"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"half":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
		"dataerr-half": func() io.Reader {
			return iotest.DataErrReader(iotest.HalfReader(bytes.NewReader(stream)))
		},
	}
	for _, b := range bounds {
		for d := -4; d <= 4; d++ {
			cut := b + d
			readers["cut@"+strconv.Itoa(cut)] = func() io.Reader { return &cutReader{b: stream, cuts: []int{cut}} }
		}
	}
	// Every boundary cut at once: each read ends exactly on a frame.
	readers["cut@frames"] = func() io.Reader { return &cutReader{b: stream, cuts: bounds} }

	for name, mk := range readers {
		r := NewReader(mk(), 0)
		rest := stream
		for i := range bounds {
			want, n, err := DecodeFrame(rest, 0)
			if err != nil {
				t.Fatalf("fixture frame %d: %v", i, err)
			}
			rest = rest[n:]
			got, err := r.Next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got.Type != want.Type || got.JobID != want.JobID || !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("%s: frame %d parsed as %v job %d (%d body bytes), want %v job %d (%d)",
					name, i, got.Type, got.JobID, len(got.Body), want.Type, want.JobID, len(want.Body))
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
			}
		}
	}
}

// TestReaderTruncation ends the stream at every byte of the last frame:
// the cut at the frame boundary is a clean io.EOF, every other one is
// io.ErrUnexpectedEOF — in the header and in the payload alike.
func TestReaderTruncation(t *testing.T) {
	stream, bounds := streamFrames(t)
	last := bounds[len(bounds)-2]
	for cut := last; cut < len(stream); cut++ {
		for _, wrap := range []func(io.Reader) io.Reader{
			func(r io.Reader) io.Reader { return r },
			iotest.DataErrReader,
		} {
			r := NewReader(wrap(bytes.NewReader(stream[:cut])), 0)
			for i := 0; i < len(bounds)-1; i++ {
				if _, err := r.Next(); err != nil {
					t.Fatalf("cut %d: frame %d: %v", cut-last, i, err)
				}
			}
			want := io.ErrUnexpectedEOF
			if cut == last {
				want = io.EOF
			}
			if _, err := r.Next(); err != want {
				t.Fatalf("stream cut %d bytes into the last frame: %v, want %v", cut-last, err, want)
			}
		}
	}
}

// TestReaderSizeCap checks the cap is enforced before the buffer grows:
// a length prefix over maxFrame is refused with the buffer as it was, a
// frame within the cap but over the buffer grows it, and the frame after
// the big one is still read correctly.
func TestReaderSizeCap(t *testing.T) {
	small := AppendError(nil, 1, "x")
	big := AppendResult(nil, 2, &engine.Result{Values: make([]float64, 2*readBufSize/8)})
	maxFrame := len(big) - 4

	hostile := append(append([]byte(nil), small...), 0, 0, 0, 0)
	hostile[len(small)], hostile[len(small)+1], hostile[len(small)+2] = byte(maxFrame+1), byte((maxFrame+1)>>8), byte((maxFrame+1)>>16)
	r := NewReader(bytes.NewReader(hostile), maxFrame)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	before := cap(r.buf)
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("length prefix one over the cap: %v", err)
	}
	if cap(r.buf) != before || before != readBufSize {
		t.Fatalf("buffer capacity %d after a refused frame, %d before, want %d", cap(r.buf), before, readBufSize)
	}

	r = NewReader(bytes.NewReader(append(append(append([]byte(nil), small...), big...), small...)), maxFrame)
	for i, wantType := range []FrameType{FrameError, FrameResult, FrameError} {
		f, err := r.Next()
		if err != nil || f.Type != wantType {
			t.Fatalf("frame %d: %v %v, want %v", i, f.Type, err, wantType)
		}
	}
	if cap(r.buf) < len(big)-4 {
		t.Fatalf("buffer capacity %d after a %d-byte payload", cap(r.buf), len(big)-4)
	}
}

// loopReader serves the same bytes over and over, a whole copy at a time.
type loopReader struct{ b []byte }

func (l loopReader) Read(p []byte) (int, error) { return copy(p, l.b), nil }

// TestReaderWarmPathAllocs pins what a client pays per RESULT once its
// connection is warm: Next allocates nothing and DecodeResult into a
// sized destination allocates the two strings the Result carries (the
// reader this one replaced also heap-allocated its 4-byte header: 3).
func TestReaderWarmPathAllocs(t *testing.T) {
	res := engine.Result{Values: make([]float64, 3100), Scheme: "rep", Why: "simplify: resident result", BatchSize: 3}
	r := NewReader(loopReader{AppendResult(nil, 7, &res)}, 0)
	dst := make([]float64, 3100)
	allocs := testing.AllocsPerRun(200, func() {
		f, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.DecodeResult(dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm Next + DecodeResult allocates %.0f times per frame, want the 2 result strings", allocs)
	}
}
