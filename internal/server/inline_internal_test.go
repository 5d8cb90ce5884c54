package server

import (
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// TestInlineServeRaces drives two connections at one hot fingerprint
// while the resident result under it is contested: a same-fingerprint
// variant re-arms the entry whenever its content comes back, a one-entry
// decision cache evicts the entry under another pattern, and Shutdown
// cuts a stream mid-flight. Every answer must be its own loop's, never
// the variant's; every job must resolve exactly once (a duplicate RESULT
// kills the client's connection, a missing one times out); the server's
// and the tenant's in-flight counts must return to zero; and the loop
// must be served resident again afterwards. A decision switch racing
// inline serves is driven in engine.TestServeResidentRaces: it is engine
// state no client can flip. Run under -race.
func TestInlineServeRaces(t *testing.T) {
	ms := workloads.NewSharedSubrangeStream(2, 0, 0.125, 5).Members
	a, b := ms[0], ms[1]
	other := workloads.HotKeySet(1, 0.2)[0]
	want := map[*trace.Loop][]float64{a: a.RunSequential(), b: b.RunSequential(), other: other.RunSequential()}
	if a.Fingerprint() != b.Fingerprint() || a.Fingerprint() == other.Fingerprint() || firstMismatch(want[b], want[a]) < 0 {
		t.Fatal("the variant must share a's fingerprint but not its answer, and other must not share it")
	}

	for _, sc := range []struct {
		name     string
		ecfg     engine.Config
		pick     func(conn, i int) *trace.Loop
		shutdown bool
	}{
		{name: "variant", pick: func(conn, i int) *trace.Loop {
			if conn == 1 && i%2 == 1 {
				return b
			}
			return a
		}},
		{name: "evict", ecfg: engine.Config{MaxCacheEntries: 1}, pick: func(conn, i int) *trace.Loop {
			if conn == 1 && i%8 == 7 {
				return other
			}
			return a
		}},
		{name: "shutdown", shutdown: true, pick: func(int, int) *trace.Loop { return a }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			specs := []TenantSpec{{Name: "t1", MaxInflight: 64}}
			ecfg := sc.ecfg
			ecfg.Workers, ecfg.Platform, ecfg.Tenants = 2, core.DefaultPlatform(4), EngineTenants(specs)
			eng, err := engine.New(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			srv := New(eng, Config{Tenants: specs})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			defer func() {
				srv.Shutdown(10 * time.Second)
				if err := <-served; err != ErrServerClosed {
					t.Errorf("Serve returned %v", err)
				}
			}()

			// Arm a's resident result before the race starts.
			for n := 0; ; n++ {
				res, err := eng.Submit(a)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(res.Why, "resident result") {
					break
				}
				if n == 16 {
					t.Fatal("a never armed")
				}
			}

			const rounds, window = 400, 8
			var wg sync.WaitGroup
			var cut sync.Once
			var mu sync.Mutex
			outcomes := map[string]int{}
			for conn := 0; conn < 2; conn++ {
				cl, err := client.Dial(ln.Addr().String(), client.Config{Conns: 1, Tenant: "t1"})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i += window {
						if sc.shutdown && conn == 0 && i == rounds/2 {
							cut.Do(func() { go srv.Shutdown(10 * time.Second) })
						}
						type sub struct {
							l *trace.Loop
							h *client.Handle
						}
						var subs []sub
						for k := i; k < i+window; k++ {
							l := sc.pick(conn, k)
							h, err := cl.SubmitAsync(l)
							if err != nil {
								mu.Lock()
								outcomes["submit error"]++
								mu.Unlock()
								continue
							}
							subs = append(subs, sub{l, h})
						}
						for _, s := range subs {
							res, err := s.h.WaitTimeout(10 * time.Second)
							key := "ok"
							switch {
							case err == nil:
								if bad := firstMismatch(res.Values, want[s.l]); bad >= 0 {
									t.Errorf("conn %d: %s element %d = %g, want %g", conn, s.l.Name, bad, res.Values[bad], want[s.l][bad])
								}
							case sc.shutdown && errors.Is(err, client.ErrConnLost):
								key = "conn lost"
							default:
								t.Errorf("conn %d: %s: %v", conn, s.l.Name, err)
								key = "error"
							}
							mu.Lock()
							outcomes[key]++
							mu.Unlock()
						}
					}
				}()
			}
			wg.Wait()
			t.Logf("outcomes %v, inline %d", outcomes, srv.Stats().Inline)
			if srv.Stats().Inline == 0 {
				t.Error("no job was served inline")
			}

			for deadline := time.Now().Add(10 * time.Second); srv.inflight.Load() != 0 || srv.tenants["t1"].inflight.Load() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("in flight after the storm: server %d, tenant %d", srv.inflight.Load(), srv.tenants["t1"].inflight.Load())
				}
			}
			for n := 0; ; n++ {
				res, err := eng.Submit(a)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(res.Why, "resident result") {
					break
				}
				if n == 16 {
					t.Fatal("a was never served resident again")
				}
			}
		})
	}
}

// firstMismatch returns the first element of got off want by more than
// the fold-order tolerance, or -1.
func firstMismatch(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			return i
		}
	}
	return -1
}

// inlineSubmitRefAllocs is the allocation ceiling of one warm SUBMIT_REF
// answered inline: none. Admission hands back the tenant it charged, not
// a release closure, and the frame lends the resident's vector.
const inlineSubmitRefAllocs = 0

// TestInlineSubmitRefWarmAllocs: a warm SUBMIT_REF of an armed loop,
// answered inline through handleSubmit — admission, the handle probe,
// the resident serve, the encode and the hand-off to the write loop —
// allocates no more than inlineSubmitRefAllocs times per job. The
// inline answer lends the resident's own vector, and the frame carries
// no recycler, so the destination pool never receives it: arrays drawn
// from the pool and scribbled on after the serves (and after the write
// loop freed their frames) leave the resident's answer as it was.
func TestInlineSubmitRefWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
	}
	eng, err := engine.New(engine.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := New(eng, Config{})
	l := workloads.HotKeySet(1, 0.2)[0]
	want := l.RunSequential()
	fp := l.Fingerprint()
	canon, handle, _ := srv.intern.Canonical(fp, l)
	for n := 0; ; n++ {
		res, err := eng.Submit(canon)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(res.Why, "resident result") {
			break
		}
		if n == 16 {
			t.Fatal("the loop never armed")
		}
	}

	nc, peer := net.Pipe()
	defer peer.Close()
	go io.Copy(io.Discard, peer)
	c := newConn(srv, nc)
	c.w = wire.NewWriter(nc, c.closeTimelines, nil)
	f, _, err := wire.DecodeFrame(wire.AppendSubmitRef(nil, 1, fp, handle, 0), 0)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 1000
	before := srv.Stats().Inline
	allocs := testing.AllocsPerRun(runs, func() { c.handleSubmit(f) })
	t.Logf("%v allocations per warm inline SUBMIT_REF", allocs)
	if got := srv.Stats().Inline - before; got != runs+1 {
		t.Fatalf("%d of %d submissions answered inline", got, runs+1)
	}
	if allocs > inlineSubmitRefAllocs {
		t.Fatalf("%v allocations per warm inline SUBMIT_REF, want at most %d", allocs, inlineSubmitRefAllocs)
	}

	c.w.Close() // every frame written and freed
	for range 8 {
		d := srv.getDst(canon.NumElems)
		for i := range d {
			d[i] = 1e300
		}
	}
	res, err := eng.Submit(canon)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Why, "resident result") {
		t.Fatalf("not served resident after the inline serves: %s", res.Why)
	}
	if bad := firstMismatch(res.Values, want); bad >= 0 {
		t.Fatalf("the resident answer changed after the inline serves: element %d = %g, want %g", bad, res.Values[bad], want[bad])
	}
}

// TestDestinationRoundTripAllocsNothing: a warm destination draw and its
// recycle, the round trip of every engine-path answer and session
// answer, allocate nothing.
func TestDestinationRoundTripAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
	}
	srv := NewWithDispatcher(nil, Config{})
	srv.recycle(srv.getDst(3100))
	if a := testing.AllocsPerRun(100, func() { srv.recycle(srv.getDst(3100)) }); a != 0 {
		t.Fatalf("a warm destination round trip allocates %v times, want 0", a)
	}
}
