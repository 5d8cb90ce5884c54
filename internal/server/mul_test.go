package server_test

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// TestMulRefusedOnTheWire: a mul loop sent as a SUBMIT or an
// OPEN_SESSION, to a daemon or through a gateway, draws a job-scoped
// ERROR and leaves nothing behind — no interned loop on the front end
// or on the daemon's engine, no session, no in-flight charge — and the
// same connection then serves an add loop with RunSequential's bits.
func TestMulRefusedOnTheWire(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{Workers: 1}, server.Config{})
	g := testkit.StartGateway(t, cluster.Config{}, server.Config{}, d.Addr)
	mul := mkSessLoop(64, 256, 41)
	mul.Op = trace.OpMul

	// state is what a refused frame must not move.
	type state struct {
		frontInterned, frontSessions int
		frontInflight, connInflight  int64
		engineEntries                int
		engineJobs                   uint64
	}
	snapshot := func(front *server.Server) state {
		st := front.Stats()
		var conn int64
		for _, n := range front.ConnInflight() {
			conn += n
		}
		return state{
			frontInterned: st.InternedLoops, frontSessions: st.Sessions,
			frontInflight: front.Inflight(), connInflight: conn,
			engineEntries: d.Eng.Table().Len(), engineJobs: d.Eng.Stats().Jobs,
		}
	}

	for _, tc := range []struct {
		name  string
		addr  string
		front *server.Server
	}{{"daemon", d.Addr, d.Srv}, {"gateway", g.Addr, g.Srv}} {
		cl := testkit.DialPool(t, tc.addr, client.Config{Conns: 1})
		for i, frame := range []struct {
			name string
			send func() error
		}{
			{"SUBMIT", func() error { _, err := cl.Submit(mul); return err }},
			{"OPEN_SESSION", func() error { _, _, err := cl.OpenSession(mul); return err }},
		} {
			what := tc.name + " " + frame.name
			before := snapshot(tc.front)
			err := frame.send()
			if err == nil {
				t.Fatalf("%s: a mul loop was answered", what)
			}
			// A gateway refuses every OPEN_SESSION before it decodes one.
			if (tc.name == "daemon" || frame.name == "SUBMIT") && !strings.Contains(err.Error(), engine.ErrMulUnserved.Error()) {
				t.Fatalf("%s: error %q does not name the mul refusal", what, err)
			}
			if after := snapshot(tc.front); after != before {
				t.Fatalf("%s: the refusal left state behind: before %+v, after %+v", what, before, after)
			}
			add := mkSessLoop(64, 256, int64(50+i))
			res, err := cl.Submit(add)
			if err != nil {
				t.Fatalf("%s: add loop on the same connection: %v", what, err)
			}
			assertBits(t, what+": add loop after the refusal", res.Values, add.RunSequential())
		}
	}
}
