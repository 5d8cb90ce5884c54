package cluster_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// sealRecorder is a gateway's pool that records every loop the front end
// dispatches, with the fingerprint the front end interned it under.
type sealRecorder struct {
	*cluster.Pool
	mu    sync.Mutex
	loops []*trace.Loop
	fps   []uint64
}

func (r *sealRecorder) Dispatch(l *trace.Loop, fp uint64, dst []float64, tl *obs.Timeline, tenant string) (server.Waiter, error) {
	r.mu.Lock()
	r.loops = append(r.loops, l)
	r.fps = append(r.fps, fp)
	r.mu.Unlock()
	return r.Pool.Dispatch(l, fp, dst, tl, tenant)
}

// TestGatewayDispatchesSealedLoops: every loop a gateway's front end
// hands its pool is its sealed canonical copy, never the submitter's, and
// the pool client's per-leg fingerprint of it — the memo — is the one it
// was interned under, so the backend files the pattern under the same
// key and answers its repeats from the resident.
func TestGatewayDispatchesSealedLoops(t *testing.T) {
	b := startBackend(t, engine.Config{}, server.Config{})
	pool, err := cluster.New(cluster.Config{Backends: []string{b.addr}, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rec := &sealRecorder{Pool: pool}
	srv := server.NewWithDispatcher(rec, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(10 * time.Second)
		if err := <-served; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()
	cl := testkit.DialPool(t, ln.Addr().String(), client.Config{Conns: 2})

	loops := workloads.HotKeySet(4, 0.2)
	const rounds = 4
	for range rounds {
		for _, l := range loops {
			res, err := cl.Submit(l)
			if err != nil {
				t.Fatal(err)
			}
			assertMatches(t, l.Name, res.Values, l.RunSequential())
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.loops) != rounds*len(loops) {
		t.Fatalf("%d loops dispatched, want %d", len(rec.loops), rounds*len(loops))
	}
	for i, l := range rec.loops {
		if !l.Sealed() {
			t.Fatalf("dispatch %d: the loop is not sealed", i)
		}
		if got := l.Fingerprint(); got != rec.fps[i] {
			t.Fatalf("dispatch %d: the leg fingerprints %016x, interned under %016x", i, got, rec.fps[i])
		}
		if l.Clone().Fingerprint() != rec.fps[i] {
			t.Fatalf("dispatch %d: the memo is not the content's fingerprint", i)
		}
	}
	for _, l := range loops {
		if l.Sealed() {
			t.Fatalf("%s: the submitter's loop was sealed", l.Name)
		}
		if _, ok := b.eng.ServeResident(l, l.Fingerprint(), 0); !ok {
			t.Fatalf("%s: the backend holds no resident under the interned fingerprint", l.Name)
		}
	}
}
