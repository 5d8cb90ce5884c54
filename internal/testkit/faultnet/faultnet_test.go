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
