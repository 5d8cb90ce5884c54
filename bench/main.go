// Command bench is the repository's benchmark (see README.md and
// ../BENCHMARK.json): five seeded workloads driven closed-loop through the
// public APIs of the engine, the client→server hop and the gateway, with
// results checked against the sequential oracle.
//
//	go run -C bench . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-check]
//
// With -workload the last line of standard output is one JSON object:
// the end-to-end metrics (-trace 0) or the per-layer metrics of a separate
// traced pass (-trace 1). Without it all five workloads run and every
// metric is printed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "", "run one workload and end with the result JSON line (default: all five)")
	seed := flag.Int64("seed", 1, "generator seed; the program under test sees only the generated loops")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed measurement length per workload")
	trace := flag.Int("trace", 1, "1 adds the traced pass and layer probes and reports the per-layer metrics")
	check := flag.Bool("check", false, "run the timed suite twice and fail when any end-to-end pair differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *check:
		err = runCheck(*seed, cfg)
	case *name != "":
		err = runOne(*name, *seed, cfg, *trace == 1)
	default:
		_, err = runSuite(*seed, cfg, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect makes the command exit non-zero after it has printed what
// it measured.
var errIncorrect = errors.New("operations failed or results diverged from the sequential oracle")

// result is one workload's run. Layers is empty without the traced pass.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Digest    string   `json:"stream_digest"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	Layers    []metric `json:"per_layer,omitempty"`
	// What the medians rest on: the number of set-ups behind setup_s and,
	// per measured window, jobs_per_s at machine speed 1.0, as the clock
	// read it, and the machine speed the reference gave.
	Setups            int       `json:"setups"`
	WindowJobsPerS    []float64 `json:"window_jobs_per_s"`
	WindowRawJobsPerS []float64 `json:"window_raw_jobs_per_s"`
	WindowSpeed       []float64 `json:"window_machine_speed"`
}

// meta is recorded in every file the harness writes.
type meta struct {
	Nproc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Stack      string `json:"stack"`
	When       string `json:"when"`
}

// readMeta takes the commit from the VCS stamp `go build` leaves in the
// binary; a build outside a git checkout (or `go run`) has none.
func readMeta() meta {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return meta{
		Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit + dirty,
		Stack: fmt.Sprintf("engine{Workers:%d Platform:DefaultPlatform(%d)} server{} cluster{Conns:%d, %d backends} client{Conns:%d} submitters=%d window=%d loopback",
			engineWorkers, engineProcs, gatewayConns, gatewayNodes, submitters(), submitters(), window),
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// runWorkload measures one workload: setups set-ups (setup_s is their
// median; the last one is kept), the timed windows with tracing off, and,
// when traced, a separate fixed-count traced pass on a fresh set-up
// followed by the layer probes. sp carries the stack.* ratios when the
// caller already has them.
func runWorkload(w workload, seed int64, cfg config, traced bool, sp *stackRatios) (result, error) {
	var t tally
	var r *rig
	// The reference reads its own copy of the inputs, so that the first
	// set-up too has a slice on either side; one unmeasured slice first
	// faults its arrays in.
	ref := newReference(w, generate(w, seed, cfg), cfg.refSlice)
	ref.speed()
	before := ref.speed()
	// setup_s is a median over set-ups: at least cfg.setups of them, and
	// for a workload that sets up in milliseconds as many more (at most
	// maxSetups) as fit in cfg.setupFill seconds, so a 50 ms median does
	// not rest on three samples.
	var setupS []float64
	for spent := 0.0; len(setupS) < cfg.setups || (spent < cfg.setupFill && len(setupS) < maxSetups); {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = setUp(w, seed, cfg, &t); err != nil {
			return result{}, err
		}
		raw := time.Since(t0).Seconds()
		after := ref.speed()
		setupS = append(setupS, raw*(before+after)/2)
		spent += raw
		before = after
	}
	tm := r.timed(cfg.seconds, ref, before)
	digest := r.in.digest()
	if err := r.close(); err != nil {
		return result{}, err
	}

	var e2e metricSet
	jobsPerS := tm.over(func(w windowStat) float64 { return w.jobsPerS })
	e2e.put("jobs_per_s", "1/s", median(jobsPerS))
	e2e.put("lat_p50_us", "us", median(tm.over(func(w windowStat) float64 { return w.p50 })))
	e2e.put("lat_p95_us", "us", median(tm.over(func(w windowStat) float64 { return w.p95 })))
	e2e.put("cpu_us_per_job", "us", median(tm.over(func(w windowStat) float64 { return w.cpuPerJob })))
	e2e.put("alloc_bytes_per_job", "B", median(tm.over(func(w windowStat) float64 { return w.allocPerJob })))
	e2e.put("setup_s", "s", median(setupS))
	speeds := tm.over(func(w windowStat) float64 { return w.speed })
	rawJobsPerS := tm.over(func(w windowStat) float64 { return w.rawJobsPerS })
	res := result{
		Workload: w.name, Seed: seed, Digest: fmt.Sprintf("%016x", digest), EndToEnd: e2e.list, Setups: len(setupS),
		WindowJobsPerS: jobsPerS, WindowRawJobsPerS: rawJobsPerS, WindowSpeed: speeds,
	}

	if traced {
		var ms metricSet
		if err := runTraced(w, seed, cfg, &t, &ms, sp); err != nil {
			return result{}, err
		}
		ms.put("driver.lat_p99_us", "us", tm.p99)
		ms.put("driver.lat_max_us", "us", tm.max)
		ms.put("driver.window_spread_pct", "%", 100*ratio(slices.Max(jobsPerS)-slices.Min(jobsPerS), median(jobsPerS)))
		ms.put("driver.samples", "count", float64(tm.ops))
		ms.put("driver.machine_speed", "ratio", median(speeds))
		ms.put("driver.raw_jobs_per_s", "1/s", median(rawJobsPerS))
		ms.put("driver.gc_pause_us_total", "us", tm.gcPauseUs)
		ms.put("driver.verify_checked", "count", float64(t.verified.Load()))
		ms.put("driver.fail_ratio", "ratio", ratio(float64(t.failed()), float64(t.attempted.Load())))
		ms.put("driver.nproc", "count", float64(runtime.NumCPU()))
		res.Layers = ms.list
	}
	res.Attempted, res.Failed = t.attempted.Load(), t.failed()
	res.Correct = t.mismatches.Load() == 0
	return res, nil
}

// traceFile is what the traced pass leaves in out/trace-<workload>.json.
type traceFile struct {
	Meta     meta          `json:"meta"`
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Ops      int           `json:"operations"`
	Elapsed  float64       `json:"elapsed_s"`
	Summary  []spanSummary `json:"summary"`
	Layers   []metric      `json:"per_layer"`
	Spans    []span        `json:"spans"`
}

func runTraced(w workload, seed int64, cfg config, t *tally, ms *metricSet, sp *stackRatios) error {
	r, err := setUp(w, seed, cfg, t)
	if err != nil {
		return err
	}
	tr := r.traced()
	tr.layerCounters(r, ms)
	if err := r.close(); err != nil {
		return err
	}
	ms.put("driver.traced_jobs_per_s", "1/s", float64(tr.ops)/tr.elapsed.Seconds())
	ms.put("driver.trace_overhead_pct", "%", 100*(tr.elapsed.Seconds()/tr.plain.Seconds()-1))

	sample := probeSample(r.in, cfg)
	probeKernels(sample, cfg, ms)
	if err := probeIdleSubmit(sample, cfg, ms); err != nil {
		return err
	}
	if w.session {
		err = probeSessions(r, tr.startStep, tr.ops/sessions, ms)
	} else {
		err = probeStream(r, tr.start, tr.ops, ms)
	}
	if err != nil {
		return err
	}
	if sp == nil {
		if sp, err = probeStack(seed, cfg, t); err != nil {
			return err
		}
	}
	sp.put(ms)
	return writeJSON(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), traceFile{
		Meta: readMeta(), Workload: w.name, Seed: seed, Ops: tr.ops, Elapsed: tr.elapsed.Seconds(),
		Summary: tr.summary, Layers: ms.list, Spans: tr.spans,
	})
}

// stackRatios is ROADMAP 1(a)'s ratio gates: the same Zipf stream, the
// same fixed job count, on the three stacks.
type stackRatios struct {
	jobsPerS [3]float64 // indexed by stackKind
	p50      [3]float64
}

func probeStack(seed int64, cfg config, t *tally) (*stackRatios, error) {
	var sp stackRatios
	for _, w := range workloadList[:3] { // zipf_engine, zipf_remote, zipf_gateway
		r, err := setUp(w, seed, cfg, t)
		if err != nil {
			return nil, err
		}
		ph := &phase{limit: int64(cfg.stackJobs), rec: newRecorder()}
		t0 := time.Now()
		r.run(ph)
		sp.jobsPerS[w.stack] = float64(cfg.stackJobs) / time.Since(t0).Seconds()
		sp.p50[w.stack] = quantileNs(ph.rec.sorted(), 0.5)
		if err := r.close(); err != nil {
			return nil, err
		}
	}
	return &sp, nil
}

func (sp *stackRatios) put(ms *metricSet) {
	ms.put("stack.engine_jobs_per_s", "1/s", sp.jobsPerS[stackEngine])
	ms.put("stack.remote_over_engine", "ratio", ratio(sp.jobsPerS[stackRemote], sp.jobsPerS[stackEngine]))
	ms.put("stack.gateway_over_remote", "ratio", ratio(sp.jobsPerS[stackGateway], sp.jobsPerS[stackRemote]))
	ms.put("stack.hop_overhead_us", "us", sp.p50[stackGateway]-sp.p50[stackRemote])
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printResult(res result) {
	fmt.Printf("== %s  seed=%d  stream=%s  attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Digest, res.Attempted, res.Failed, res.Correct)
	fmt.Printf("%-16s medians over %d windows and %d set-ups\n", res.Workload, len(res.WindowJobsPerS), res.Setups)
	fmt.Printf("%-16s   jobs_per_s at machine speed 1.0 %.0f\n", res.Workload, res.WindowJobsPerS)
	fmt.Printf("%-16s   jobs_per_s as the clock read it %.0f\n", res.Workload, res.WindowRawJobsPerS)
	fmt.Printf("%-16s   machine speed %.2f\n", res.Workload, res.WindowSpeed)
	for _, m := range append(slices.Clone(res.EndToEnd), res.Layers...) {
		fmt.Printf("%-16s %-44s %16.4f %s\n", res.Workload, m.Name, m.Value, m.Unit)
	}
}

// runOne is the driver's entry: one workload, ending with the contract's
// JSON line — end-to-end metrics without the traced pass, per-layer
// metrics with it.
func runOne(name string, seed int64, cfg config, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, seed, cfg, traced, nil)
	if err != nil {
		return err
	}
	printResult(res)
	list := res.EndToEnd
	if traced {
		list = res.Layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(list))}
	for _, m := range list {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runSuite runs all five workloads, prints every metric and writes
// out/result.json.
func runSuite(seed int64, cfg config, traced bool) ([]result, error) {
	var sp *stackRatios
	if traced {
		var t tally
		var err error
		if sp, err = probeStack(seed, cfg, &t); err != nil {
			return nil, err
		}
		if t.failed() > 0 {
			return nil, errIncorrect
		}
	}
	var results []result
	bad := false
	for _, w := range workloadList {
		res, err := runWorkload(w, seed, cfg, traced, sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(res)
		results = append(results, res)
		bad = bad || res.Failed > 0
	}
	err := writeJSON(filepath.Join(cfg.outDir, "result.json"), struct {
		Meta    meta     `json:"meta"`
		Results []result `json:"results"`
	}{readMeta(), results})
	if err == nil && bad {
		err = errIncorrect
	}
	return results, err
}
