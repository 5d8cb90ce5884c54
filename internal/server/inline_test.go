package server_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/workloads"
)

// assertBits fails unless got and want are bit-identical.
func assertBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestInlineAnswersAreEnginePathBits: once a pattern's resident result
// is armed on a daemon, every RESULT the read loop serves inline is
// bit-identical to an in-process engine's resident answer for the same
// loop, and every delta a session applies on the read
// loop reads bit-identical to RunSequential over the mirrored loop.
// Both are answered with the daemon's only worker parked: a resident
// SUBMIT_REF and a delta take no engine queue slot.
func TestInlineAnswersAreEnginePathBits(t *testing.T) {
	const procs = 4
	d := testkit.StartDaemon(t, engine.Config{Workers: 1, Platform: core.DefaultPlatform(procs)}, server.Config{})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})

	l := workloads.NewSharedSubrangeStream(1, 0, 0.125, 5).Members[0]
	for n := 0; d.Srv.Stats().Inline == 0; n++ {
		if n == 16 {
			t.Fatal("no submission served inline after 16 repeats")
		}
		if _, err := cl.Submit(l); err != nil {
			t.Fatal(err)
		}
	}

	ref, err := engine.New(engine.Config{Workers: 1, Platform: core.DefaultPlatform(procs)})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var want []float64
	for n := 0; want == nil; n++ {
		if n == 16 {
			t.Fatal("in-process engine never served the loop resident")
		}
		res, err := ref.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(res.Why, "resident result") {
			want = res.Values
		}
	}

	ds := workloads.NewDeltaStream(24, 8, 0.125, 3)
	sess, _ := testkit.StartSession(t, cl, ds.Base)
	release, err := d.Eng.Hold()
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	const repeats = 50
	before, refs := d.Srv.Stats().Inline, d.Srv.Stats().HandleHits
	for i := 0; i < repeats; i++ {
		res, err := cl.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, "inline RESULT", res.Values, want)
	}
	if got := d.Srv.Stats().Inline - before; got != repeats {
		t.Fatalf("%d of %d armed repeats served inline", got, repeats)
	}
	if got := d.Srv.Stats().HandleHits - refs; got != repeats {
		t.Fatalf("%d of %d armed repeats arrived as SUBMIT_REF", got, repeats)
	}

	before = d.Srv.Stats().Inline
	for step, batch := range ds.Batches {
		res, err := sess.SubmitDelta(batch)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		assertBits(t, "session delta", res.Values, ds.MirrorAt(step+1).RunSequential())
	}
	if got := d.Srv.Stats().Inline - before; got != uint64(len(ds.Batches)) {
		t.Fatalf("%d of %d deltas applied inline", got, len(ds.Batches))
	}
}
