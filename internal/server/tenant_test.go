package server_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workloads"
)

// TestTenantQuotaBusy pins the per-tenant in-flight quota end to end: a
// tenant-bound client flooding past its quota draws BUSY while an
// unbound (default-tenant) client on the same server sails through, and
// the rejections land on the tenant's own counter.
func TestTenantQuotaBusy(t *testing.T) {
	tenants := []server.TenantSpec{{Name: "capped", Weight: 1, MaxInflight: 1}}
	eng, srv, addr, teardown := startServer(t,
		engine.Config{Workers: 1, Tenants: server.EngineTenants(tenants)},
		server.Config{Tenants: tenants})
	defer teardown()

	capped, err := client.Dial(addr, client.Config{Conns: 1, Tenant: "capped"})
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	free, err := client.Dial(addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()

	l := workloads.MixedSet(0.5)[0]
	want := l.RunSequential()
	// The single worker stays parked while the flood goes out, so the
	// first job still holds the tenant's one slot when the others arrive:
	// rejections do not depend on the worker being slower than the wire.
	release, err := eng.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	const flood = 32
	handles := make([]*client.Handle, flood)
	for i := range handles {
		h, err := capped.SubmitAsync(l)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for deadline := time.Now().Add(10 * time.Second); srv.TenantBusy("capped") < flood-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server rejected %d of the %d jobs behind the quota", srv.TenantBusy("capped"), flood-1)
		}
	}
	release()
	busy, ok := 0, 0
	for _, h := range handles {
		res, err := h.Wait()
		switch {
		case err == nil:
			assertMatches(t, l.Name, res.Values, want)
			ok++
		case errors.Is(err, client.ErrBusy):
			busy++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if busy == 0 || ok == 0 {
		t.Fatalf("quota 1 over %d pipelined jobs: ok=%d busy=%d, want both non-zero", flood, ok, busy)
	}
	if got := srv.TenantBusy("capped"); got != uint64(busy) {
		t.Fatalf("tenant busy counter %d, client saw %d rejections", got, busy)
	}

	// The default tenant shares no quota with "capped": its jobs all run.
	for i := 0; i < 4; i++ {
		res, err := free.Submit(l)
		if err != nil {
			t.Fatalf("default-tenant job rejected: %v", err)
		}
		assertMatches(t, l.Name, res.Values, want)
	}
	if got := srv.TenantBusy(engine.DefaultTenant); got != 0 {
		t.Fatalf("default tenant counted %d busy, want 0", got)
	}
}

// TestTenantRateLimitBusy pins the token bucket end to end: with a
// near-zero refill rate and burst 2, exactly the burst is admitted and
// the rest draw BUSY, deterministically.
func TestTenantRateLimitBusy(t *testing.T) {
	tenants := []server.TenantSpec{{Name: "trickle", Weight: 1, Rate: 0.0001, Burst: 2}}
	_, srv, addr, teardown := startServer(t,
		engine.Config{Workers: 1, Tenants: server.EngineTenants(tenants)},
		server.Config{Tenants: tenants})
	defer teardown()

	cl, err := client.Dial(addr, client.Config{Conns: 1, Tenant: "trickle"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	l := workloads.MixedSet(0.5)[0]
	const flood = 8
	busy, ok := 0, 0
	handles := make([]*client.Handle, flood)
	for i := range handles {
		h, err := cl.SubmitAsync(l)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles {
		if _, err := h.Wait(); err == nil {
			ok++
		} else if errors.Is(err, client.ErrBusy) {
			busy++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok != 2 || busy != flood-2 {
		t.Fatalf("burst 2 over %d jobs: ok=%d busy=%d, want exactly 2 admitted", flood, ok, busy)
	}
	if got := srv.TenantBusy("trickle"); got != uint64(busy) {
		t.Fatalf("tenant busy counter %d, want %d", got, busy)
	}
}

// TestTenantStatsOverWire drives jobs under two tenant identities and
// reads the per-tenant attribution back through a STATS round trip — the
// full path: HELLO binding, weighted dispatch, engine rows, the server's
// busy merge, and the fifth STATS tail.
func TestTenantStatsOverWire(t *testing.T) {
	tenants := []server.TenantSpec{
		{Name: "gold", Weight: 4},
		{Name: "bronze", Weight: 1, MaxInflight: 1},
	}
	_, _, addr, teardown := startServer(t,
		engine.Config{Workers: 1, Tenants: server.EngineTenants(tenants)},
		server.Config{Tenants: tenants})
	defer teardown()

	gold, err := client.Dial(addr, client.Config{Conns: 1, Tenant: "gold"})
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	bronze, err := client.Dial(addr, client.Config{Conns: 1, Tenant: "bronze"})
	if err != nil {
		t.Fatal(err)
	}
	defer bronze.Close()

	l := workloads.MixedSet(0.3)[0]
	const goldJobs, bronzeJobs = 6, 3
	for i := 0; i < goldJobs; i++ {
		if _, err := gold.Submit(l); err != nil {
			t.Fatal(err)
		}
	}
	bronzeBusy := 0
	for i := 0; i < bronzeJobs; {
		if _, err := bronze.Submit(l); err != nil {
			if errors.Is(err, client.ErrBusy) {
				bronzeBusy++
				time.Sleep(time.Millisecond)
				continue
			}
			t.Fatal(err)
		}
		i++
	}

	stats, err := gold.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]engine.TenantStats{}
	for _, row := range stats.Tenants {
		rows[row.Name] = row
	}
	if len(rows) != 3 {
		t.Fatalf("stats carried %d tenant rows %v, want default+gold+bronze", len(rows), rows)
	}
	if g := rows["gold"]; g.Jobs != goldJobs || g.Weight != 4 {
		t.Errorf("gold row = %+v, want %d jobs at weight 4", g, goldJobs)
	}
	if b := rows["bronze"]; b.Jobs != bronzeJobs || b.Busy != uint64(bronzeBusy) {
		t.Errorf("bronze row = %+v, want %d jobs, %d busy", b, bronzeJobs, bronzeBusy)
	}
	if d := rows[engine.DefaultTenant]; d.Jobs != 0 {
		t.Errorf("default tenant charged %d jobs nobody submitted", d.Jobs)
	}
}

// TestAdmissionReleaseBalanced is the regression pin for the admission
// consolidation: every handler now runs the same admit path, so a storm
// of rejections and successes across every gate (conn, tenant quota,
// rate, global) must leave all in-flight gauges at exactly zero — the
// historical bug class here was an early return that charged a counter
// and never rolled it back.
func TestAdmissionReleaseBalanced(t *testing.T) {
	tenants := []server.TenantSpec{{Name: "capped", Weight: 1, MaxInflight: 2}}
	_, srv, addr, teardown := startServer(t,
		engine.Config{Workers: 1, Tenants: server.EngineTenants(tenants)},
		server.Config{Tenants: tenants, MaxInflightPerConn: 4, MaxInflightGlobal: 8})
	defer teardown()

	l := workloads.MixedSet(0.5)[0]
	for round := 0; round < 3; round++ {
		cl, err := client.Dial(addr, client.Config{Conns: 2, Tenant: "capped"})
		if err != nil {
			t.Fatal(err)
		}
		var handles []*client.Handle
		for i := 0; i < 48; i++ {
			h, err := cl.SubmitAsync(l)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		// STATSREQ rides the same admission path; hammer it too.
		for i := 0; i < 8; i++ {
			_, _ = cl.Stats()
		}
		for _, h := range handles {
			if _, err := h.Wait(); err != nil && !errors.Is(err, client.ErrBusy) {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		cl.Close()

		// Releases run just after the response is sent; give the deferred
		// unwind a beat before asserting exact zero.
		deadline := time.Now().Add(2 * time.Second)
		for srv.Inflight() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: global in-flight stuck at %d after all jobs resolved", round, srv.Inflight())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if srv.Stats().Busy == 0 {
		t.Fatal("storm produced no rejections — the regression gates were never exercised")
	}
}
