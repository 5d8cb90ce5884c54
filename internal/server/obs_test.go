package server_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/workloads"
)

// waitTraces polls srv's trace ring until it holds at least n traces: the
// write loop observes a job once its RESULT is on the socket, so a client
// can hold the answer a moment before the trace lands.
func waitTraces(t *testing.T, srv *server.Server, n int) []obs.JobTrace {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if traces := srv.Traces(); len(traces) >= n {
			return traces
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace ring holds %d traces, want %d", len(srv.Traces()), n)
		}
	}
}

// TestServerStageTimelines drives jobs through the wire path with
// TraceSlow negative (trace everything) and checks the observability
// contract: every job lands in the trace ring, client-assigned trace IDs
// survive the round trip, server-generated IDs are unique and non-zero,
// stage histograms cover the serving pipeline, and each trace's stage
// durations sum to its recorded total (the merge residual guarantees it
// by construction — this pins that the construction holds).
func TestServerStageTimelines(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{}, server.Config{TraceSlow: -1, TraceRingSize: 128})
	defer d.Close()

	cl, err := client.Dial(d.Addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	loops := workloads.MixedSet(0.2)[:2]
	const wantID = uint64(0xabcdef0123)
	h, err := cl.SubmitAsyncIntoTraced(loops[0], nil, wantID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(loops[i%len(loops)]); err != nil {
			t.Fatal(err)
		}
	}

	traces := waitTraces(t, d.Srv, 6)
	if len(traces) != 6 {
		t.Fatalf("trace ring holds %d traces, want 6", len(traces))
	}
	seen := map[uint64]bool{}
	var foundAssigned bool
	for _, tr := range traces {
		if tr.TraceID == 0 {
			t.Fatal("trace recorded with zero ID")
		}
		if seen[tr.TraceID] {
			t.Fatalf("duplicate trace ID %#x", tr.TraceID)
		}
		seen[tr.TraceID] = true
		if tr.TraceID == wantID {
			foundAssigned = true
		}
		var sum int64
		for _, st := range tr.Stages {
			if st.Ns <= 0 {
				t.Fatalf("trace %#x stage %s has non-positive duration %d", tr.TraceID, st.Stage, st.Ns)
			}
			sum += st.Ns
		}
		if tr.TotalNs <= 0 || sum != tr.TotalNs {
			t.Fatalf("trace %#x stages sum to %dns, total %dns", tr.TraceID, sum, tr.TotalNs)
		}
	}
	if !foundAssigned {
		t.Fatalf("client-assigned trace ID %#x not in ring", wantID)
	}

	stages := d.Srv.StageStats()
	byName := map[string]uint64{}
	for _, s := range stages {
		byName[s.Name] = s.Snap.Count
	}
	// decode, intern, execute and the two write stages happen on every
	// job; queue_wait and inspect depend on the path and engine timing,
	// merge on whether the residual was non-zero — only the unconditional
	// ones are asserted.
	for _, name := range []string{"decode", "intern", "execute", "write_wait", "write"} {
		if byName[name] != 6 {
			t.Fatalf("stage %s observed %d times, want 6 (have %v)", name, byName[name], byName)
		}
	}
	// A waiter releases its admission slot just after handing the response
	// to the write loop, so the client can hold the answer a moment before
	// the gauge drops.
	for deadline := time.Now().Add(10 * time.Second); d.Srv.Inflight() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge stuck at %d after all jobs resolved", d.Srv.Inflight())
		}
	}
}

// TestServerTraceSlowThreshold checks the positive-threshold path: with
// an unreachable threshold nothing is traced, while stage histograms
// still accumulate.
func TestServerTraceSlowThreshold(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{}, server.Config{TraceSlow: time.Hour})
	defer d.Close()

	cl, err := client.Dial(d.Addr, client.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	l := workloads.MixedSet(0.2)[0]
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(l); err != nil {
			t.Fatal(err)
		}
	}
	if traces := d.Srv.Traces(); len(traces) != 0 {
		t.Fatalf("hour-threshold ring holds %d traces, want 0", len(traces))
	}
	if len(d.Srv.StageStats()) == 0 {
		t.Fatal("stage histograms empty despite served jobs")
	}
}

// TestWriteStagesCloseTimeline follows one engine-path job (a cold
// pattern's first sight) and one job the read loop served inline (the
// same pattern once its resident total is armed) to the socket: both
// timelines carry write_wait and write, the engine path's queue_wait and
// the inline one's none, and each sums exactly to its total, which now
// ends when the write returns.
func TestWriteStagesCloseTimeline(t *testing.T) {
	d := testkit.StartDaemon(t, engine.Config{}, server.Config{TraceSlow: -1, TraceRingSize: 128})
	cl := testkit.DialPool(t, d.Addr, client.Config{Conns: 1})
	l := workloads.NewSharedSubrangeStream(1, 0, 0.125, 5).Members[0]

	submit := func(id uint64) {
		t.Helper()
		h, err := cl.SubmitAsyncIntoTraced(l, nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	const enginePath, inline = uint64(0xe1), uint64(0x11)
	submit(enginePath)
	for n := 0; d.Srv.Stats().Inline == 0; n++ {
		if n == 16 {
			t.Fatal("no submission served inline after 16 repeats")
		}
		submit(uint64(0x100 + n))
	}
	before := d.Srv.Stats().Inline
	submit(inline)
	if got := d.Srv.Stats().Inline - before; got != 1 {
		t.Fatalf("the armed repeat moved the inline counter by %d, want 1", got)
	}

	byID := map[uint64]obs.JobTrace{}
	for deadline := time.Now().Add(10 * time.Second); len(byID) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("traces %#x and %#x not both observed", enginePath, inline)
		}
		for _, tr := range d.Srv.Traces() {
			if tr.TraceID == enginePath || tr.TraceID == inline {
				byID[tr.TraceID] = tr
			}
		}
	}
	for id, tr := range byID {
		stages := map[string]int64{}
		var sum int64
		for _, st := range tr.Stages {
			stages[st.Stage] = st.Ns
			sum += st.Ns
		}
		if sum != tr.TotalNs {
			t.Errorf("trace %#x: stages sum to %dns, total %dns", id, sum, tr.TotalNs)
		}
		for _, name := range []string{"decode", "intern", "execute", "encode", "write_wait", "write"} {
			if stages[name] <= 0 {
				t.Errorf("trace %#x has no %s stage: %v", id, name, stages)
			}
		}
		if (stages["queue_wait"] > 0) != (id == enginePath) {
			t.Errorf("trace %#x: queue_wait %dns (engine path: %v)", id, stages["queue_wait"], id == enginePath)
		}
	}
}
