package faultnet_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/testkit/faultnet"
	"repro/internal/workloads"
)

// TestPieces: a wrapped connection's writes arrive in pieces of at most
// maxPiece bytes, its reads return at most maxPiece bytes, and the bytes
// arrive intact.
func TestPieces(t *testing.T) {
	const maxPiece = 7
	a, b := net.Pipe()
	fa := faultnet.Wrap(a, 1, maxPiece)
	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	go func() {
		fa.Write(msg)
		fa.Close()
	}()
	var got []byte
	buf := make([]byte, 1024)
	for {
		n, err := b.Read(buf)
		if n > maxPiece {
			t.Fatalf("a write reached the peer as a %d-byte piece", n)
		}
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("pieces do not reassemble to the message")
	}

	c, d := net.Pipe()
	fc := faultnet.Wrap(c, 2, maxPiece)
	go func() {
		d.Write(msg)
		d.Close()
	}()
	got = got[:0]
	for {
		n, err := fc.Read(buf)
		if n > maxPiece {
			t.Fatalf("a read returned %d bytes", n)
		}
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("short reads do not reassemble to the message")
	}
}

// TestResets: a resetting listener's connection closes once its drawn
// byte count has crossed it — here a server that only writes, so the
// peer reads exactly that many bytes, in the window, the same count for
// the same seed, and then end of stream.
func TestResets(t *testing.T) {
	const lo, hi = 1000, 3000
	counts := map[int64]int{}
	for _, seed := range []int64{5, 5, 6} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rl := faultnet.ListenResetting(ln, seed, 1<<20, lo, hi)
		go func() {
			c, err := rl.Accept()
			if err != nil {
				return
			}
			msg := make([]byte, 512)
			for {
				if _, err := c.Write(msg); err != nil {
					c.Close()
					return
				}
			}
		}()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second)) // a connection that never resets fails, not hangs
		n, err := io.Copy(io.Discard, c)
		c.Close()
		ln.Close()
		if err != nil {
			t.Fatalf("seed %d: %v after %d bytes, want end of stream", seed, err, n)
		}
		if n < lo || n > hi {
			t.Fatalf("seed %d: reset after %d bytes, outside [%d, %d]", seed, n, lo, hi)
		}
		if prev, ok := counts[seed]; ok && prev != int(n) {
			t.Fatalf("seed %d: reset after %d bytes, then after %d", seed, prev, n)
		}
		counts[seed] = int(n)
	}
}

// TestStall: a stalling connection reads exactly its drawn byte count —
// inside the window, the same count for the same seed — then reads
// nothing for at least half its maximum span, then reads the rest
// intact. A stall until Close ends when the connection is closed.
func TestStall(t *testing.T) {
	const lo, hi, span = 100, 3000, 200 * time.Millisecond
	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	counts := map[int64]int{}
	for _, seed := range []int64{3, 3, 4} {
		a, b := net.Pipe()
		go func() {
			a.Write(msg)
			a.Close()
		}()
		sc := faultnet.Stall(b, seed, lo, hi, span)
		var got []byte
		before, gap := -1, time.Duration(0)
		buf := make([]byte, 512)
		for {
			start := time.Now()
			n, err := sc.Read(buf)
			if d := time.Since(start); d > gap {
				before, gap = len(got), d
			}
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		sc.Close()
		if !bytes.Equal(got, msg) {
			t.Fatalf("seed %d: read %d bytes that are not the message", seed, len(got))
		}
		if before < lo || before > hi || gap < span/2 {
			t.Fatalf("seed %d: the longest read (%v) came after %d bytes, want a stall of at least %v inside [%d, %d]", seed, gap, before, span/2, lo, hi)
		}
		if prev, ok := counts[seed]; ok && prev != before {
			t.Fatalf("seed %d: stalled after %d bytes, then after %d", seed, prev, before)
		}
		counts[seed] = before
	}

	a, b := net.Pipe()
	defer a.Close()
	go a.Write(msg)
	sc := faultnet.Stall(b, 1, 10, 10, 0)
	if n, err := io.ReadFull(sc, make([]byte, 10)); n != 10 || err != nil {
		t.Fatalf("read %d bytes before the stall: %v", n, err)
	}
	start := time.Now()
	time.AfterFunc(30*time.Millisecond, func() { sc.Close() })
	if _, err := sc.Read(make([]byte, 1)); err == nil || time.Since(start) < 30*time.Millisecond {
		t.Fatalf("a stall until Close returned %v after %v", err, time.Since(start))
	}
}

// TestRoundTripsOverFaults boots a daemon on a faulting listener — its
// every write split into 1..k-byte pieces, its every read short — and
// runs full SUBMITs, SUBMIT_REFs and a session through a client. Every
// answer must be RunSequential's bits.
func TestRoundTripsOverFaults(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		maxPiece int
	}{{1, 1}, {2, 7}, {3, 61}, {4, 1500}} {
		t.Run(fmt.Sprintf("seed%d/k%d", tc.seed, tc.maxPiece), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			d := testkit.StartDaemonOn(t, faultnet.Listen(ln, tc.seed, tc.maxPiece), engine.Config{}, server.Config{})
			cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

			// Three rounds of each loop: the first goes out in full, the
			// later ones as handles.
			loops := workloads.MixedSet(0.05)
			for round := 0; round < 3; round++ {
				for _, l := range loops {
					res, err := cl.Submit(l)
					if err != nil {
						t.Fatalf("round %d %s: %v", round, l.Name, err)
					}
					sameBits(t, fmt.Sprintf("round %d %s", round, l.Name), res.Values, l.RunSequential())
				}
			}
			if st := d.Srv.Stats(); st.HandleHits < uint64(2*len(loops)) {
				t.Fatalf("%d handle hits, want at least %d: repeats did not travel as SUBMIT_REF", st.HandleHits, 2*len(loops))
			}

			ds := workloads.NewDeltaStream(6, 8, 0.05, tc.seed)
			sess, res := testkit.StartSession(t, cl, ds.Base)
			sameBits(t, "session open", res.Values, ds.Base.RunSequential())
			for step, batch := range ds.Batches {
				res, err := sess.SubmitDelta(batch)
				if err != nil {
					t.Fatalf("delta %d: %v", step, err)
				}
				sameBits(t, fmt.Sprintf("delta %d", step), res.Values, ds.MirrorAt(step+1).RunSequential())
			}
		})
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}
