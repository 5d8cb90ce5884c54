package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// refResult is the contiguous RESULT encoding as the codec wrote it
// before frames lent their vectors — head, the array stored element by
// element, tail — an oracle that shares no vector or length handling
// with LendResult.
func refResult(dst []byte, jobID uint64, r *engine.Result, handle uint64) []byte {
	dst, p := beginFrame(dst, FrameResult, jobID)
	var flags byte
	if r.CacheHit {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(max(r.Elapsed, 0)))
	dst = appendString(dst, r.Scheme)
	dst = appendString(dst, r.Why)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	for _, v := range r.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.AppendUvarint(dst, r.SessionGen)
	dst = binary.AppendUvarint(dst, handle)
	return endFrame(dst, p)
}

// withLending runs f with lendVectors set to lend, restoring it after.
func withLending(lend bool, f func()) {
	defer func(old bool) { lendVectors = old }(lendVectors)
	lendVectors = lend
	f()
}

// lendModes are the RESULT paths this host can take: lending where the
// host's floats are the wire's bytes, and the copying path everywhere.
func lendModes() map[string]bool {
	m := map[string]bool{"copied": false}
	if hostLE {
		m["lent"] = true
	}
	return m
}

// TestLentResultBytes: a RESULT lent to a Buffer between two other
// frames reaches the wire as the contiguous encoding did — through the
// vectored write's pieces and through the gather alike, at the vector
// lengths 0, 1, 7 and the Zipf streams' 3100, with arbitrary bit
// patterns. Lending keeps the vector out of B and recycles it only at
// Free; the copying path (the big-endian one, taken here through the
// test hook) stores it into B and recycles it at once. Either way the
// recycler runs exactly once, and AppendResultHandle's contiguous form
// matches too.
func TestLentResultBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for mode, lend := range lendModes() {
		withLending(lend, func() {
			for _, n := range []int{0, 1, 7, 3100} {
				r := engine.Result{Values: make([]float64, n), Scheme: "rep", Why: "simplify: resident result",
					CacheHit: true, Elapsed: 1234 * time.Nanosecond, SessionGen: 9}
				for i := range r.Values {
					r.Values[i] = math.Float64frombits(rng.Uint64())
				}
				want := AppendSubmitRef(nil, 1, 2, 3, 0)
				want = refResult(want, 77, &r, 300)
				want = AppendError(want, 5, "after")

				recycled := 0
				b := GetBuffer()
				b.B = AppendSubmitRef(b.B, 1, 2, 3, 0)
				b.LendResult(77, &r, 300, func(v []float64) {
					recycled++
					if len(v) != n || (n > 0 && &v[0] != &r.Values[0]) {
						t.Errorf("%s n=%d: the recycler got another vector", mode, n)
					}
				})
				b.B = AppendError(b.B, 5, "after")

				inB, early := len(want), 1
				if lend {
					inB, early = len(want)-8*n, 0
				}
				if len(b.B) != inB || recycled != early {
					t.Errorf("%s n=%d: B holds %d of %d bytes and the vector was recycled %d times before Free, want %d and %d",
						mode, n, len(b.B), len(want), recycled, inB, early)
				}
				if got := bytes.Join(b.appendIovecs(nil), nil); !bytes.Equal(got, want) {
					t.Fatalf("%s n=%d: the vectored pieces join to\n%x\nwant\n%x", mode, n, got, want)
				}
				if got := b.appendTo([]byte("xy")); !bytes.Equal(got[2:], want) || string(got[:2]) != "xy" {
					t.Fatalf("%s n=%d: the gather appended\n%x\nwant\n%x", mode, n, got, want)
				}
				b.Free()
				if recycled != 1 {
					t.Errorf("%s n=%d: recycled %d times, want once", mode, n, recycled)
				}
				if got := AppendResultHandle([]byte{0xa5}, 77, &r, 300); !bytes.Equal(got[1:], refResult(nil, 77, &r, 300)) || got[0] != 0xa5 {
					t.Fatalf("%s n=%d: AppendResultHandle is not the contiguous encoding", mode, n)
				}
			}
		})
	}
}

// tcpPair returns a loopback TCP connection's two ends: a Writer over
// either writes with writev.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
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
	t.Cleanup(func() {
		dialed.Close()
		accepted.Close()
	})
	return accepted, dialed
}

// lendLedger counts recycler calls per lent vector. Its recycler checks
// the vector still holds the values it was lent with and then scribbles
// on it, as the next job drawing it from a pool would: a vector recycled
// before its frame was written reaches the wire scribbled.
type lendLedger struct {
	t    *testing.T
	mu   sync.Mutex
	lent map[*float64]int // recycler calls per vector, by its first element
	want map[*float64]float64
}

func newLendLedger(t *testing.T) *lendLedger {
	return &lendLedger{t: t, lent: map[*float64]int{}, want: map[*float64]float64{}}
}

// frame returns frame k of a Writer lifetime test and its wire bytes:
// every third a plain SUBMIT_REF, the rest RESULTs lending 1, 7 or 3100
// values that name k.
func (l *lendLedger) frame(k int) (*Buffer, []byte) {
	b := GetBuffer()
	if k%3 == 0 {
		b.B = AppendSubmitRef(b.B, uint64(k+1), uint64(k), uint64(k), 0)
		return b, bytes.Clone(b.B)
	}
	r := engine.Result{Values: make([]float64, []int{1, 7, 3100}[k/3%3]), Scheme: "rep"}
	for i := range r.Values {
		r.Values[i] = float64(k*10_000 + i)
	}
	l.mu.Lock()
	l.lent[&r.Values[0]] = 0
	l.want[&r.Values[0]] = r.Values[0]
	l.mu.Unlock()
	b.LendResult(uint64(k+1), &r, 0, l.recycle)
	return b, refResult(nil, uint64(k+1), &r, 0)
}

func (l *lendLedger) recycle(v []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v[0] != l.want[&v[0]] {
		l.t.Errorf("a vector was recycled twice, or scribbled on while lent")
	}
	l.lent[&v[0]]++
	for i := range v {
		v[i] = -1
	}
}

// check fails unless every lent vector was recycled exactly once.
func (l *lendLedger) check(what string) {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.lent {
		if n != 1 {
			l.t.Errorf("%s: a lent vector was recycled %d times, want once", what, n)
			return
		}
	}
}

// TestWriterLentVectorLifetime mixes lent RESULTs with plain frames
// through a Writer over loopback TCP (writev: a lent vector is its own
// slice) and over net.Pipe (the gather): the peer reads back exactly the
// contiguous encoding, and each vector is recycled exactly once, only
// after the write that carried it. A Writer whose connection is already
// closed fails its first write and recycles every frame it drops, and a
// Send after Close recycles at once. Run under -race.
func TestWriterLentVectorLifetime(t *testing.T) {
	if !hostLE {
		t.Skip("nothing is lent on this host")
	}
	const frames = 3 * MaxBatch
	transports := map[string]func() (net.Conn, net.Conn){
		"tcp": func() (net.Conn, net.Conn) { return tcpPair(t) },
		"pipe": func() (net.Conn, net.Conn) {
			a, b := net.Pipe()
			t.Cleanup(func() { a.Close(); b.Close() })
			return a, b
		},
	}
	for name, pair := range transports {
		t.Run(name+"/written", func(t *testing.T) {
			l := newLendLedger(t)
			local, peer := pair()
			w := NewWriter[struct{}](local, nil, func(err error) { t.Errorf("write failed: %v", err) })
			read := make(chan []byte)
			go func() {
				got, _ := io.ReadAll(peer)
				read <- got
			}()
			var want []byte
			for k := 0; k < frames; k++ {
				b, enc := l.frame(k)
				want = append(want, enc...)
				w.Send(b, struct{}{})
			}
			w.Close()
			local.Close()
			got := <-read
			if !bytes.Equal(got, want) {
				t.Fatalf("the peer read %d bytes that differ from the %d of the contiguous encoding", len(got), len(want))
			}
			l.check("written")
		})
		t.Run(name+"/failed", func(t *testing.T) {
			l := newLendLedger(t)
			local, _ := pair()
			local.Close()
			failed := make(chan error, 1)
			w := NewWriter(local, func([]struct{}, time.Time, time.Time) { t.Error("a failed write ran the hook") },
				func(err error) { failed <- err })
			for k := 0; k < frames; k++ {
				b, _ := l.frame(k)
				w.Send(b, struct{}{})
			}
			if err := <-failed; !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("the write failed with %v", err)
			}
			w.Close()
			l.check("dropped after the write error")
		})
		t.Run(name+"/closed", func(t *testing.T) {
			l := newLendLedger(t)
			local, _ := pair()
			w := NewWriter[struct{}](local, nil, nil)
			w.Close()
			for k := 1; k < frames; k += 3 {
				b, _ := l.frame(k)
				w.Send(b, struct{}{})
			}
			l.check("sent after Close")
		})
	}
}
