package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec mirrors ../BENCHMARK.json, the one place metric names, directions
// and regression bounds are fixed.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readSpec loads BENCHMARK.json from the repository root; the harness runs
// from its own directory (go run -C bench .).
func readSpec() (spec, error) {
	var s spec
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

func find(list []metric, name string) (float64, bool) {
	for _, m := range list {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// validity is what each workload must still be exercising; a workload
// that stopped doing so measures something else under the old name.
var validity = []struct {
	workload, metric string
	ok               func(float64) bool
	want             string
}{
	{"churn_engine", "engine.cache_hit_ratio", func(v float64) bool { return v <= 0.05 }, "<= 0.05"},
	{"churn_engine", "engine.jobs_per_batch", func(v float64) bool { return v <= 1.05 }, "<= 1.05"},
	{"zipf_engine", "engine.simplified_job_share", func(v float64) bool { return v >= 0.9 }, ">= 0.9"},
	{"zipf_gateway", "cluster.affinity_entries_ratio", func(v float64) bool { return v == 1 }, "= 1.0"},
}

// runCheck is the benchmark's self-test: the suite twice back to back on
// the same code must agree within the bounds it would hold a change to.
func runCheck(seed int64, cfg config) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	first, err := runSuite(seed, cfg, true)
	if err != nil {
		return err
	}
	second, err := runSuite(seed, cfg, false)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Println("== check: second run against first, same code")
	for i, a := range first {
		for _, m := range sp.EndToEnd {
			va, _ := find(a.EndToEnd, m.Name)
			vb, _ := find(second[i].EndToEnd, m.Name)
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			// setup_s is a fraction of a second; below 0.1 s a relative
			// bound only measures scheduler jitter.
			if worse > m.Bound && !(m.Name == "setup_s" && math.Abs(vb-va) <= 0.1) {
				verdict = "OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %+7.2f%% (bound %.0f%%) %s\n", a.Workload, m.Name, va, vb, 100*(vb-va)/va, 100*m.Bound, verdict)
		}
	}
	fmt.Println("== check: workload validity")
	for _, v := range validity {
		for _, a := range first {
			if a.Workload != v.workload {
				continue
			}
			got, _ := find(a.Layers, v.metric)
			verdict := "ok"
			if !v.ok(got) {
				verdict = "NOT HELD"
				bad++
			}
			fmt.Printf("%-16s %-34s %10.4f want %-8s %s\n", v.workload, v.metric, got, v.want, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("check: %d readings outside their bounds", bad)
	}
	return nil
}
