package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

// testConfig shrinks every size so the five workloads run in seconds.
func testConfig(t *testing.T) config {
	return config{
		seconds: 0.25, refSlice: 5 * time.Millisecond, setups: 1, warmJobs: 64, warmDeltas: 16,
		traceJobs: 256, traceDeltas: 256, stackJobs: 256,
		churnPatterns: 192, deltaSteps: 512, probeLoops: 6, probeReps: 1,
		outDir: t.TempDir(),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkAgainstSpec fails unless got is exactly the spec's list: every
// named metric once, finite, with the spec's unit, and nothing else.
func checkAgainstSpec(t *testing.T, workload, kind string, got []metric, want []specMetric) {
	t.Helper()
	emitted := make(map[string]metric, len(got))
	for _, m := range got {
		if _, dup := emitted[m.Name]; dup {
			t.Errorf("%s: %s metric %q emitted twice", workload, kind, m.Name)
		}
		emitted[m.Name] = m
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric name %q is outside the contract's alphabet", workload, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", workload, m.Name, m.Value)
		}
	}
	for _, s := range want {
		m, ok := emitted[s.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json names %s metric %q, the harness did not emit it", workload, kind, s.Name)
			continue
		}
		if m.Unit == "" || m.Unit != s.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, s.Name, m.Unit, s.Unit)
		}
		delete(emitted, s.Name)
	}
	for name := range emitted {
		t.Errorf("%s: harness emits %s metric %q that BENCHMARK.json lacks", workload, kind, name)
	}
}

// TestMetricsMatchSpec holds BENCHMARK.json and the harness together: the
// file's workloads are the harness's, and every workload emits exactly the
// file's metrics.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(sp.Workloads), len(workloadList))
	}
	cfg := testConfig(t)
	for i, w := range workloadList {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, sp.Workloads[i].Name, w.name)
		}
		res, err := runWorkload(w, 1, cfg, true, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: %d of %d operations failed (correct=%v)", w.name, res.Failed, res.Attempted, res.Correct)
		}
		if got, _ := find(res.Layers, "driver.verify_checked"); got == 0 {
			t.Errorf("%s: no result was compared with the oracle", w.name)
		}
		checkAgainstSpec(t, w.name, "end-to-end", res.EndToEnd, sp.EndToEnd)
		checkAgainstSpec(t, w.name, "per-layer", res.Layers, sp.PerLayer)
	}
}

// exactCounts are the per-layer metrics that must repeat exactly for one
// seed: they are functions of the generated inputs alone.
var exactCounts = []string{
	"wire.submit_frame_bytes", "wire.result_frame_bytes", "wire.delta_frame_bytes", "wire.bytes_per_job",
	"reduction.refs_per_job", "reduction.bytes_moved_per_job_computed",
	"engine.session_segs_computed", "engine.session_segs_reused_ratio",
}

func tracedOnce(t *testing.T, w workload, seed int64) (uint64, []metric) {
	t.Helper()
	cfg := testConfig(t)
	var tl tally
	var ms metricSet
	if err := runTraced(w, seed, cfg, &tl, &ms, &stackRatios{}); err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if tl.failed() != 0 {
		t.Fatalf("%s seed %d: %d operations failed", w.name, seed, tl.failed())
	}
	return generate(w, seed, cfg).digest(), ms.list
}

// TestSeedDeterminism: the same seed gives the same stream digest and the
// same exact counts in two traced runs; another seed gives another stream.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"zipf_remote", "churn_engine", "session_remote"} {
		w, _ := workloadByName(name)
		d1, m1 := tracedOnce(t, w, 1)
		d2, m2 := tracedOnce(t, w, 1)
		if d1 != d2 {
			t.Errorf("%s: seed 1 gave stream digests %x and %x", name, d1, d2)
		}
		for _, c := range exactCounts {
			a, _ := find(m1, c)
			b, _ := find(m2, c)
			if a != b {
				t.Errorf("%s: %s = %v then %v for the same seed", name, c, a, b)
			}
		}
		if d3, _ := tracedOnce(t, w, 2); d3 == d1 {
			t.Errorf("%s: seeds 1 and 2 gave the same stream digest %x", name, d1)
		}
	}
}
