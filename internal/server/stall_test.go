package server_test

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testkit/faultnet"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// dialStalling opens a connection to addr whose reads stall as
// faultnet.Stall draws from seed, and reads the server's HELLO.
func dialStalling(t *testing.T, addr string, seed int64, span time.Duration) (net.Conn, *wire.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc = faultnet.Stall(nc, seed, 64<<10, 256<<10, span)
	if err := wire.WritePreamble(nc); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(nc, wire.DefaultMaxFrame)
	if f, err := r.Next(); err != nil || f.Type != wire.FrameHello {
		t.Fatalf("no HELLO: %v %v", f.Type, err)
	}
	return nc, r
}

// TestStalledClientDrains pipelines SUBMIT_REFs of resident loops (each
// answered inline by a frame that lends the resident's vector) and
// engine-path SUBMITs (each answered by a frame that lends a pooled
// destination array) over plain loopback TCP — the vectored write path
// — from a client whose reads stall after a seeded 64–256 KB. The
// answers, some 25 MB, fill the socket buffers and the write queue, so
// frames wait in the write loop with their vectors lent.
//
// "resumes": the stall ends after at most 300 ms and the client reads
// every job's answer, once, to RunSequential's bits (or BUSY): no array
// was recycled, and drawn by a later job, while a frame still lent it.
// "cut": the stall lasts until Close, and Shutdown, after 200 ms, cuts
// the connection, so the write loop drops its frames after a write
// error. Either way every lent destination array comes back to the pool
// exactly once, the global and per-connection in-flight counts return
// to 0, and no goroutine outlives the drain. Run under -race.
func TestStalledClientDrains(t *testing.T) {
	loops := workloads.HotKeySet(36, 1)
	hot, cold := loops[:4], loops[4:]
	want := make(map[*trace.Loop][]float64, len(loops))
	for _, l := range loops {
		want[l] = l.RunSequential()
	}
	for _, mode := range []struct {
		name string
		span time.Duration
	}{{"resumes", 300 * time.Millisecond}, {"cut", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			eng, err := engine.New(engine.Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			srv, lg := server.NewLedgered(eng, server.Config{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()

			// Arm the hot loops and learn their handles on a plain
			// connection: the first RESULT of a full SUBMIT carries the
			// handle, the third sight arms the resident.
			warm := dialRaw(t, ln.Addr().String())
			handles := make([]uint64, len(hot))
			for round := 0; round < 4; round++ {
				for i, l := range hot {
					warm.write(wire.AppendSubmit(nil, 1, l))
					f := warm.next()
					if f.Type != wire.FrameResult {
						t.Fatalf("warm-up of %s answered with %v", l.Name, f.Type)
					}
					if _, h, err := f.DecodeResultHandle(nil); err != nil {
						t.Fatal(err)
					} else if round == 0 {
						handles[i] = h
					}
				}
			}
			warm.nc.Close()
			inlineBefore := srv.Stats().Inline

			// Eight of every nine jobs are SUBMIT_REFs of a hot loop; the
			// ninth is a SUBMIT of a cold one, on its first or second sight.
			nc, r := dialStalling(t, ln.Addr().String(), 7, mode.span)
			const jobs = 432
			jobLoop := make([]*trace.Loop, jobs+1)
			var out []byte
			for k := 0; k < jobs; k++ {
				id := uint64(k + 1)
				if k%9 == 8 {
					jobLoop[id] = cold[k/9%len(cold)]
					out = wire.AppendSubmit(out, id, jobLoop[id])
				} else {
					i := k % len(hot)
					jobLoop[id] = hot[i]
					out = wire.AppendSubmitRef(out, id, hot[i].Fingerprint(), handles[i], 0)
				}
			}
			wrote := make(chan error, 1)
			go func() {
				_, err := nc.Write(out)
				wrote <- err
			}()

			if mode.span > 0 {
				answered := make([]bool, jobs+1)
				busy := 0
				for n := 0; n < jobs; n++ {
					f, err := r.Next()
					if err != nil {
						t.Fatalf("after %d answers: %v", n, err)
					}
					if f.JobID == 0 || f.JobID > jobs || answered[f.JobID] {
						t.Fatalf("answer %d names job %d, unknown or answered before", n, f.JobID)
					}
					answered[f.JobID] = true
					switch f.Type {
					case wire.FrameBusy:
						busy++
					case wire.FrameResult:
						res, _, err := f.DecodeResultHandle(nil)
						if err != nil {
							t.Fatal(err)
						}
						assertBits(t, jobLoop[f.JobID].Name, res.Values, want[jobLoop[f.JobID]])
					default:
						t.Fatalf("job %d answered with %v", f.JobID, f.Type)
					}
				}
				t.Logf("%d answers, %d BUSY", jobs, busy)
			} else {
				// Let the server run into the stall: wait until neither
				// path makes progress for 100 ms.
				progress := func() int64 { return int64(srv.Stats().Inline) + lg.Lent.Load() }
				for last, deadline := int64(-1), time.Now().Add(10*time.Second); progress() != last; {
					if time.Now().After(deadline) {
						t.Fatal("the server never stalled")
					}
					last = progress()
					time.Sleep(100 * time.Millisecond)
				}
			}
			t.Logf("%d answered inline, %d engine-path arrays lent", srv.Stats().Inline-inlineBefore, lg.Lent.Load())
			if srv.Stats().Inline == inlineBefore || lg.Lent.Load() == 0 {
				t.Fatalf("%d inline, %d engine-path answers: both paths must lend", srv.Stats().Inline-inlineBefore, lg.Lent.Load())
			}

			probes := srv.ConnInflightProbes()
			err = srv.Shutdown(200 * time.Millisecond)
			if mode.span == 0 && err == nil {
				t.Fatal("Shutdown drained a stalled connection without cutting it")
			} else if mode.span > 0 && err != nil {
				t.Fatal(err)
			}
			if err := <-served; !errors.Is(err, server.ErrServerClosed) {
				t.Errorf("Serve returned %v", err)
			}
			if lent, recycled := lg.Lent.Load(), lg.Recycled.Load(); lent != recycled {
				t.Errorf("%d destination arrays lent to frames, %d recycled", lent, recycled)
			}
			if n := srv.Inflight(); n != 0 {
				t.Errorf("%d jobs in flight after the drain", n)
			}
			for _, p := range probes {
				if n := p(); n != 0 {
					t.Errorf("a drained connection still counts %d jobs in flight", n)
				}
			}
			nc.Close()
			if err := <-wrote; mode.span > 0 && err != nil {
				t.Errorf("writing the jobs: %v", err)
			}
			eng.Close()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the drain, %d before the server booted:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}
