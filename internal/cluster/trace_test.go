package cluster_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/workloads"
)

func findTrace(traces []obs.JobTrace, id uint64) (obs.JobTrace, bool) {
	for _, tr := range traces {
		if tr.TraceID == id {
			return tr, true
		}
	}
	return obs.JobTrace{}, false
}

// awaitTrace polls srv's ring for trace id: a tier observes a job once
// its RESULT is on the socket, so the answer can reach the client a
// moment before the trace lands.
func awaitTrace(srv *server.Server, id uint64) (obs.JobTrace, bool) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if tr, ok := findTrace(srv.Traces(), id); ok {
			return tr, true
		}
	}
	return obs.JobTrace{}, false
}

// TestCrossTierTraceStitching is the end-to-end tracing acceptance test:
// a traced job submitted through the gateway must appear in BOTH tiers'
// trace rings under the same trace ID — the client-assigned ID rides the
// SUBMIT frame to the gateway and is forwarded on the backend leg. On
// each tier the stage durations sum exactly to that tier's recorded
// total, and the gateway's total up to the start of its socket write
// (which brackets the whole journey) is within the client's observed
// latency.
func TestCrossTierTraceStitching(t *testing.T) {
	b := startBackend(t, engine.Config{}, server.Config{TraceSlow: -1})
	g := testkit.StartGateway(t, cluster.Config{},
		server.Config{TraceSlow: -1}, b.addr)
	cl := testkit.DialPool(t, g.Addr, client.Config{Conns: 1})

	l := workloads.MixedSet(0.2)[0]
	const wantID = uint64(0x5eed_cafe_f00d)
	start := time.Now()
	h, err := cl.SubmitAsyncIntoTraced(l, nil, wantID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	clientLatency := time.Since(start)

	gwTrace, ok := awaitTrace(g.Srv, wantID)
	if !ok {
		t.Fatalf("trace %#x not in gateway ring: %+v", wantID, g.Srv.Traces())
	}
	beTrace, ok := awaitTrace(b.d.Srv, wantID)
	if !ok {
		t.Fatalf("trace %#x not in backend ring: %+v", wantID, b.d.Srv.Traces())
	}

	check := func(tier string, tr obs.JobTrace) map[string]int64 {
		t.Helper()
		byStage := map[string]int64{}
		var sum int64
		for _, st := range tr.Stages {
			byStage[st.Stage] = st.Ns
			sum += st.Ns
		}
		if sum != tr.TotalNs {
			t.Fatalf("%s: stages sum to %dns, total %dns", tier, sum, tr.TotalNs)
		}
		return byStage
	}
	gwStages := check("gateway", gwTrace)
	beStages := check("backend", beTrace)

	// The gateway's journey includes routing and the backend leg; the
	// backend's includes the engine stages. Each tier records the stages
	// it owns.
	for _, st := range []string{"route", "backend_wait"} {
		if gwStages[st] <= 0 {
			t.Fatalf("gateway trace missing %s leg: %v", st, gwStages)
		}
	}
	for _, st := range []string{"decode", "intern", "execute"} {
		if beStages[st] <= 0 {
			t.Fatalf("backend trace missing %s stage: %v", st, beStages)
		}
	}

	// The backend's timeline closes after its own socket write, and the
	// gateway may hold the answer — and finish its own timeline — while
	// that write is still returning. Everything the backend did before
	// its write, though, lies between the gateway's route start and the
	// end of its wait for the leg: inside the gateway total, and inside
	// route + backend_wait + merge, since the waiter goroutine's start
	// between the two legs is charged to merge, the residual. Everything
	// before the gateway's own write sits within the client's observed
	// latency (the client adds only encode + socket time on top, so the
	// gateway must account for the bulk of it).
	beSent := beTrace.TotalNs - beStages["write"]
	leg := gwStages["route"] + gwStages["backend_wait"] + gwStages["merge"]
	if leg < beSent || gwTrace.TotalNs < beSent {
		t.Fatalf("gateway route+backend_wait+merge %dns / total %dns below the backend's %dns before its write",
			leg, gwTrace.TotalNs, beSent)
	}
	if sent := gwTrace.TotalNs - gwStages["write"]; sent > clientLatency.Nanoseconds() {
		t.Fatalf("gateway total before its write %dns exceeds client latency %dns", sent, clientLatency.Nanoseconds())
	}
}

// TestGatewayRetryLegsTraced pins the retry accounting: a job that draws
// BUSY from a saturated backend and retries records the retry count and
// a retry_backoff leg on its gateway timeline.
func TestGatewayRetryLegsTraced(t *testing.T) {
	// One worker, queue depth 1 and a single in-flight slot make the
	// backend answer BUSY under minimal pressure.
	b := startBackend(t,
		engine.Config{Workers: 1, QueueDepth: 1},
		server.Config{MaxInflightPerConn: 1, MaxInflightGlobal: 1})
	g := testkit.StartGateway(t,
		cluster.Config{BusyRetries: 8, BusyBackoff: time.Millisecond},
		server.Config{TraceSlow: -1, MaxInflightPerConn: 64}, b.addr)
	cl := testkit.DialPool(t, g.Addr, client.Config{Conns: 1})

	loops := workloads.MixedSet(0.2)[:4]
	handles := make([]*client.Handle, 0, 16)
	for i := 0; i < 16; i++ {
		h, err := cl.SubmitAsync(loops[i%len(loops)])
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		// BUSY escaping to the client is fine here — saturation is the
		// point; only successfully retried jobs are inspected below.
		h.Wait()
	}

	var retried bool
	for _, tr := range g.Srv.Traces() {
		if tr.Retries > 0 {
			retried = true
			var backoff int64
			for _, st := range tr.Stages {
				if st.Stage == "retry_backoff" {
					backoff = st.Ns
				}
			}
			if backoff <= 0 {
				t.Fatalf("trace %#x has %d retries but no retry_backoff leg: %+v",
					tr.TraceID, tr.Retries, tr.Stages)
			}
		}
	}
	if !retried {
		t.Skip("no job drew BUSY under this scheduling; retry path not exercised")
	}
}
