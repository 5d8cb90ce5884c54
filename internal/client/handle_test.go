package client_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
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

func tinyLoop(k int) *trace.Loop {
	l := trace.NewLoop(fmt.Sprintf("tiny-%d", k), 64)
	for i := 0; i < 8; i++ {
		l.AddIter(int32((k+i*5)%64), int32((k*3+i)%64))
	}
	return l
}

func assertSums(t *testing.T, l *trace.Loop, got []float64) {
	t.Helper()
	want := l.RunSequential()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", l.Name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: element %d = %g, want %g", l.Name, i, got[i], want[i])
		}
	}
}

// legacyStub is a server from before pattern handles: its HELLO carries
// no capability bit and it answers every SUBMIT with a tail-less RESULT.
// It records every byte the client sends after the preamble, which is
// what the compat test compares.
type legacyStub struct {
	addr string
	mu   sync.Mutex
	got  bytes.Buffer
}

func startLegacyStub(t *testing.T) *legacyStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	st := &legacyStub{addr: ln.Addr().String()}
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := wire.ReadPreamble(br); err != nil {
			return
		}
		nc.Write(wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Procs: 4, MaxInflight: 64}))
		rec := io.TeeReader(br, lockedWriter{st})
		r := wire.NewReader(rec, 0)
		for {
			f, err := r.Next()
			if err != nil {
				return
			}
			if f.Type != wire.FrameSubmit {
				continue // the tenant HELLO
			}
			l, err := f.DecodeSubmit(0)
			if err != nil {
				return
			}
			res := engine.Result{Values: l.RunSequential(), Scheme: "stub", BatchSize: 1}
			nc.Write(wire.AppendResult(nil, f.JobID, &res))
		}
	}()
	return st
}

type lockedWriter struct{ st *legacyStub }

func (w lockedWriter) Write(p []byte) (int, error) {
	w.st.mu.Lock()
	defer w.st.mu.Unlock()
	return w.st.got.Write(p)
}

func (st *legacyStub) received() []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]byte(nil), st.got.Bytes()...)
}

// TestLegacyServerDialogueUnchanged is the new-client row of the compat
// matrix at dialogue level: against a server that does not advertise
// pattern handles the client sends exactly what it sent before they
// existed — no opt-in HELLO, never a SUBMIT_REF however often a loop
// repeats — and with a tenant configured, exactly the old tenant HELLO
// (whose encoding the wire package pins against a captured frame).
func TestLegacyServerDialogueUnchanged(t *testing.T) {
	l := tinyLoop(1)
	for _, tenant := range []string{"", "acme"} {
		st := startLegacyStub(t)
		cl, err := client.Dial(st.addr, client.Config{Conns: 1, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		if tenant != "" {
			want = wire.AppendHello(want, wire.Hello{Version: wire.ProtoVersion, Tenant: tenant})
		}
		for id := uint64(1); id <= 3; id++ {
			res, err := cl.Submit(l)
			if err != nil {
				t.Fatal(err)
			}
			assertSums(t, l, res.Values)
			want = wire.AppendSubmit(want, id, l)
		}
		cl.Close()
		if got := st.received(); !bytes.Equal(got, want) {
			t.Fatalf("tenant %q: client sent %d bytes to a legacy server, want the %d-byte pre-handle dialogue\n got %x\nwant %x",
				tenant, len(got), len(want), got, want)
		}
	}
}

// TestHandleStalenessGuard mutates a loop between submissions — against
// the package contract, but the cheap half of the damage is caught: the
// client re-checks the fingerprint before every reference, so a loop
// whose fingerprint moved goes out in full and is answered with its new
// pattern's sums, never the old handle's.
func TestHandleStalenessGuard(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{}, server.Config{})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	l := tinyLoop(2)
	submit := func(wantHits uint64) {
		t.Helper()
		res, err := cl.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		assertSums(t, l, res.Values)
		if st := d.Srv.Stats(); st.HandleHits != wantHits || st.HandleGone != 0 {
			t.Fatalf("handle hits %d gone %d, want %d and 0", st.HandleHits, st.HandleGone, wantHits)
		}
	}
	submit(0) // full SUBMIT, handle learned
	submit(1) // by reference
	l.AddIter(7, 7, 9)
	submit(1) // fingerprint moved: full SUBMIT again, new handle learned
	submit(2) // and the new pattern now goes by reference
}

// TestHandleTableBounded walks more distinct loops over one connection
// than its handle table may hold. Past the bound the table resets
// wholesale, so an early loop has lost its handle (it goes out in full
// again) while one learned after the reset still goes by reference —
// the table neither grows without limit nor wedges when full.
func TestHandleTableBounded(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{}, server.Config{})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	const extra = 8
	loops := make([]*trace.Loop, client.MaxHandles+extra)
	handles := make([]*client.Handle, 0, 32)
	wait := func() {
		t.Helper()
		for _, h := range handles {
			if _, err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		handles = handles[:0]
		// A RESULT reaches the client before the server returns the job's
		// admission slot; the next window must not race those releases
		// into the per-connection limit.
		for d.Srv.Inflight() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for k := range loops {
		loops[k] = tinyLoop(k)
		h, err := cl.SubmitAsync(loops[k])
		if err != nil {
			t.Fatal(err)
		}
		if handles = append(handles, h); len(handles) == cap(handles) {
			wait()
		}
	}
	wait()
	if st := d.Srv.Stats(); st.HandleHits != 0 {
		t.Fatalf("%d references among first-time submissions", st.HandleHits)
	}
	for _, probe := range []struct {
		l    *trace.Loop
		hits uint64
		why  string
	}{
		{loops[0], 0, "learned before the reset: handle dropped, full SUBMIT"},
		{loops[len(loops)-1], 1, "learned after the reset: by reference"},
		{loops[0], 2, "re-learned by the probe above: by reference"},
	} {
		res, err := cl.Submit(probe.l)
		if err != nil {
			t.Fatal(err)
		}
		assertSums(t, probe.l, res.Values)
		if st := d.Srv.Stats(); st.HandleHits != probe.hits || st.HandleGone != 0 {
			t.Fatalf("%s (%s): handle hits %d gone %d, want %d and 0", probe.l.Name, probe.why, st.HandleHits, st.HandleGone, probe.hits)
		}
	}
}

// TestHandlesDieWithConnection restarts the server under a live client.
// The new server numbers its handles from scratch, so a handle replayed
// from the old connection could name a different pattern; the table is
// per connection, so the redialed connection starts by sending the loop
// in full and the new server never sees a stale reference.
func TestHandlesDieWithConnection(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{}, server.Config{})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1, DialTimeout: 2 * time.Second})
	l := tinyLoop(3)
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(l); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Srv.Stats(); st.HandleHits != 2 {
		t.Fatalf("warm-up handle hits %d, want 2", st.HandleHits)
	}
	d.Close()

	d2 := testkit.StartDaemonAt(t, d.Addr, engine.Config{}, server.Config{})
	// Occupy the handle ID the old server had issued for l with another
	// pattern, so a replay would not even miss cleanly by ID.
	other := testkit.DialPool(t, d2.Addr, client.Config{Conns: 1})
	if _, err := other.Submit(tinyLoop(4)); err != nil {
		t.Fatal(err)
	}
	var res engine.Result
	var err error
	for attempt := 0; ; attempt++ {
		if res, err = cl.Submit(l); err == nil {
			break
		}
		if attempt > 50 {
			t.Fatalf("reconnect never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertSums(t, l, res.Values)
	if st := d2.Srv.Stats(); st.HandleHits != 0 || st.HandleGone != 0 {
		t.Fatalf("first job after the redial was a reference: %+v", st)
	}
	if res, err = cl.Submit(l); err != nil {
		t.Fatal(err)
	}
	assertSums(t, l, res.Values)
	if st := d2.Srv.Stats(); st.HandleHits != 1 || st.HandleGone != 0 {
		t.Fatalf("re-learned handle not used: %+v", st)
	}
}

// TestConcurrentSubmittersKeepFramesWhole has 16 goroutines share one
// connection: each SUBMIT is one socket write under the session's write
// lock, so the server must be able to parse the byte stream into exactly
// the frames that were sent — 800 whole SUBMITs, none interleaved — and
// every caller must get its own loop's sums back.
func TestConcurrentSubmittersKeepFramesWhole(t *testing.T) {
	const callers, each = 16, 50
	st := startLegacyStub(t)
	cl, err := client.Dial(st.addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Frames from a few dozen bytes to tens of KB, so a torn write
			// would land inside a neighbour's payload.
			l := trace.NewLoop(fmt.Sprintf("caller-%d", c), 4096)
			for i := 0; i < 1+c*c*40; i++ {
				l.AddIter(int32((i*131+c)%4096), int32((i*17+c*5)%4096))
			}
			var hs []*client.Handle
			for k := 0; k < each; k++ {
				h, err := cl.SubmitAsync(l)
				if err != nil {
					t.Errorf("caller %d submit %d: %v", c, k, err)
					return
				}
				hs = append(hs, h)
			}
			for k, h := range hs {
				res, err := h.Wait()
				if err != nil {
					t.Errorf("caller %d job %d: %v", c, k, err)
					return
				}
				assertSums(t, l, res.Values)
			}
		}()
	}
	wg.Wait()
	r := wire.NewReader(bytes.NewReader(st.received()), 0)
	frames := 0
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("the recorded client stream stops parsing after %d frames: %v", frames, err)
		}
		if _, err := f.DecodeSubmit(0); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		frames++
	}
	if frames != callers*each {
		t.Fatalf("server parsed %d SUBMIT frames, want %d", frames, callers*each)
	}
}
