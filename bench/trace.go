package main

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// span is one interval the harness observed around its own calls. A job's
// spans share Job; Parent links a child to its root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Job     int64  `json:"job"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps a traced pass's spans in memory, one slice per submitter
// so recording takes no lock; they are merged and written on exit.
type spanLog struct {
	t0  time.Time
	per [][]span
}

func newSpanLog(jobs int) *spanLog {
	sl := &spanLog{t0: time.Now(), per: make([][]span, submitters())}
	for k := range sl.per {
		sl.per[k] = make([]span, 0, 3*jobs)
	}
	return sl
}

// job records one operation: a root "job" span with a child around the
// harness's submit call (<layer>.<op>) and one around its wait
// (<layer>.wait). The root's self time is what neither child covers: the
// time the job was outstanding while its submitter served other slots.
func (sl *spanLog) job(k int, job int64, kind stackKind, op string, start, submitted, waitStart, end time.Time) {
	layer := "client"
	if kind == stackEngine {
		layer = "engine"
	}
	root := 3*job + 1
	ns := func(t time.Time) int64 { return int64(t.Sub(sl.t0)) }
	sl.per[k] = append(sl.per[k],
		span{ID: root, Job: job, Name: "job", StartNs: ns(start), EndNs: ns(end)},
		span{ID: root + 1, Parent: root, Job: job, Name: layer + "." + op, StartNs: ns(start), EndNs: ns(submitted)})
	if waitStart.Before(end) {
		sl.per[k] = append(sl.per[k],
			span{ID: root + 2, Parent: root, Job: job, Name: layer + ".wait", StartNs: ns(waitStart), EndNs: ns(end)})
	}
}

// spanSummary is the per-name roll-up written next to the spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"` // total minus the part child spans cover
}

func (sl *spanLog) all() []span {
	var out []span
	for _, p := range sl.per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func summarize(spans []span) []spanSummary {
	children := make(map[int64]int64) // root ID → nanoseconds its children cover
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	idx := make(map[string]int)
	var sums []spanSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(sums)
			idx[s.Name] = i
			sums = append(sums, spanSummary{Name: s.Name})
		}
		d := s.EndNs - s.StartNs
		sums[i].Count++
		sums[i].TotalUs += float64(d) / 1e3
		sums[i].SelfUs += float64(d-children[s.ID]) / 1e3
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].Name < sums[j].Name })
	return sums
}

// meanUs is the mean duration of the named span family in microseconds.
func meanUs(sums []spanSummary, name string) float64 {
	for _, s := range sums {
		if s.Name == name {
			return ratio(s.TotalUs, float64(s.Count))
		}
	}
	return 0
}

// counters is every counter the stack exposes from outside, read before
// and after the traced pass.
type counters struct {
	eng    engine.Stats
	srv    server.Stats
	stages []obs.StageSummary // the front server's per-job stages
	pool   cluster.PoolStats
}

func (r *rig) counters() counters {
	c := counters{eng: r.st.engineStats()}
	if f := r.st.front(); f != nil {
		c.srv, c.stages = f.Stats(), f.StageStats()
	}
	if r.st.gw != nil {
		c.pool = r.st.gw.pool.PoolStats()
	}
	return c
}

// stageDelta returns the observation count and summed microseconds stage
// name gained between two snapshots.
func stageDelta(before, after []obs.StageSummary, name string) (count, sumUs float64) {
	find := func(ss []obs.StageSummary) obs.Snapshot {
		for _, s := range ss {
			if s.Name == name {
				return s.Snap
			}
		}
		return obs.Snapshot{}
	}
	a, b := find(before), find(after)
	return float64(b.Count - a.Count), float64(b.SumNs-a.SumNs) / 1e3
}

func stageMeanUs(before, after []obs.StageSummary, name string) float64 {
	n, sum := stageDelta(before, after, name)
	return ratio(sum, n)
}

// tracedResult is a traced pass: the spans and what the counters gained.
type tracedResult struct {
	ops       int
	elapsed   time.Duration
	plain     time.Duration // the same operation count with span recording off
	start     int64         // stream position of the pass's first job
	startStep int           // every session's step at the start of the pass
	spans     []span
	summary   []spanSummary
	before    counters
	after     counters
	tallyBusy int64
	tallyLost int64
}

// traced drives a fixed operation count twice on a rig fresh from setUp:
// first with span recording off, then with it on. Everything reported
// comes from the second pass; the first is what it is compared with for
// the tracing overhead, like for like. Both are count-based, so every
// exact count repeats run to run.
func (r *rig) traced() tracedResult {
	n := r.cfg.traceJobs
	if r.w.session {
		n = r.cfg.traceDeltas
	}
	t0 := time.Now()
	r.run(&phase{limit: int64(n)})
	res := tracedResult{plain: time.Since(t0), start: r.pos}
	if r.w.session {
		res.startStep = r.sess[0].step
	}
	ph := &phase{limit: int64(n), spans: newSpanLog(n)}
	res.before, res.tallyBusy, res.tallyLost = r.counters(), r.tally.busy.Load(), r.tally.connLost.Load()
	t0 = time.Now()
	r.run(ph)
	res.elapsed = time.Since(t0)
	res.after = r.counters()
	res.tallyBusy = r.tally.busy.Load() - res.tallyBusy
	res.tallyLost = r.tally.connLost.Load() - res.tallyLost
	res.spans = ph.spans.all()
	res.summary = summarize(res.spans)
	res.ops = int(ph.next.Load())
	return res
}

// layerCounters turns the traced pass into the engine.*, client.*,
// server.* and cluster.* metrics. Layers the workload does not cross read
// 0: they did no work.
func (t tracedResult) layerCounters(r *rig, ms *metricSet) {
	a, b := t.before.eng, t.after.eng
	jobs := float64(b.Jobs - a.Jobs)
	ms.put("engine.jobs_per_batch", "count", ratio(jobs, float64(b.Batches-a.Batches)))
	ms.put("engine.cache_hit_ratio", "ratio", ratio(float64(b.CacheHits-a.CacheHits), float64(b.CacheHits-a.CacheHits+b.CacheMisses-a.CacheMisses)))
	ms.put("engine.cache_evictions_per_kjob", "count", 1000*ratio(float64(b.CacheEvictions-a.CacheEvictions), jobs))
	ms.put("engine.simplified_job_share", "ratio", ratio(float64(b.Schemes["simplify"]-a.Schemes["simplify"]), jobs))
	ms.put("engine.segs_reused_ratio", "ratio", ratio(float64(b.SegsReused-a.SegsReused), float64(b.SegsReused-a.SegsReused+b.SegsComputed-a.SegsComputed)))
	sessReused, sessComputed := float64(b.SessionSegsReused-a.SessionSegsReused), float64(b.SessionSegsComputed-a.SessionSegsComputed)
	ms.put("engine.session_segs_reused_ratio", "ratio", ratio(sessReused, sessReused+sessComputed))
	ms.put("engine.session_segs_computed", "count", sessComputed)
	// Engine stages are observed once per batch, the server's once per
	// job, under the same stage names (ROADMAP 1(b)); the unit clash is
	// reported as it is, not corrected.
	ms.put("engine.queue_wait_us_mean", "us", stageMeanUs(a.Stages, b.Stages, "queue_wait"))
	ms.put("engine.inspect_us_mean", "us", stageMeanUs(a.Stages, b.Stages, "inspect"))
	ms.put("engine.execute_us_mean", "us", stageMeanUs(a.Stages, b.Stages, "execute"))
	ms.put("engine.recalibrations", "count", float64(b.Recalibrations-a.Recalibrations))
	ms.put("engine.scheme_switches", "count", float64(b.SchemeSwitches-a.SchemeSwitches))

	// On the in-process workloads the harness's spans are engine.submit and
	// engine.wait (in the trace file); the client layer did no work.
	var submitUs, waitUs float64
	if r.w.stack != stackEngine {
		submitUs, waitUs = meanUs(t.summary, "client.submit"), meanUs(t.summary, "client.wait")
	}
	ms.put("client.submit_call_us", "us", submitUs)
	ms.put("client.wait_us", "us", waitUs)
	ms.put("client.busy", "count", float64(t.tallyBusy))
	ms.put("client.conn_lost", "count", float64(t.tallyLost))

	// Front-server stages are per-job means over every job it served, so
	// the named stages add up to stage_sum; a stage a job did not pass
	// through (or whose residual was not positive) contributes 0.
	sa, sb := t.before.stages, t.after.stages
	served, _ := stageDelta(sa, sb, "decode") // every accepted frame is decoded once
	perJob := func(name string) float64 {
		_, sum := stageDelta(sa, sb, name)
		return ratio(sum, served)
	}
	var stageSum float64
	for _, name := range []string{"decode", "intern", "queue_wait", "inspect", "execute", "merge", "encode", "route", "backend_wait", "retry_backoff"} {
		stageSum += perJob(name)
	}
	ms.put("server.decode_us_mean", "us", perJob("decode"))
	ms.put("server.intern_us_mean", "us", perJob("intern"))
	ms.put("server.merge_us_mean", "us", perJob("merge"))
	ms.put("server.encode_us_mean", "us", perJob("encode"))
	ms.put("server.stage_sum_us_mean", "us", stageSum)
	unattributed := 0.0
	if served > 0 {
		// By construction stage_sum + unattributed = the driver's mean
		// latency: socket, write queue and wake-ups no stage sees.
		unattributed = meanUs(t.summary, "job") - stageSum
	}
	ms.put("server.unattributed_us_mean", "us", unattributed)
	ms.put("server.intern_hit_ratio", "ratio", ratio(float64(t.after.srv.InternHits-t.before.srv.InternHits), served))
	ms.put("server.busy", "count", float64(t.after.srv.Busy-t.before.srv.Busy))
	ms.put("server.sessions_resident", "count", float64(t.after.srv.Sessions))
	ms.put("server.session_evictions", "count", float64(t.after.srv.SessionEvictions-t.before.srv.SessionEvictions))

	ms.put("cluster.route_us_mean", "us", perJob("route"))
	ms.put("cluster.backend_wait_us_mean", "us", perJob("backend_wait"))
	ms.put("cluster.retry_backoff_us_mean", "us", perJob("retry_backoff"))
	pa, pb := t.before.pool, t.after.pool
	ms.put("cluster.rerouted", "count", float64(pb.Rerouted-pa.Rerouted))
	ms.put("cluster.busy_retries", "count", float64(pb.BusyRetries-pa.BusyRetries))
	ms.put("cluster.busy_spills", "count", float64(pb.BusySpills-pa.BusySpills))
	ms.put("cluster.exhausted", "count", float64(pb.Exhausted-pa.Exhausted))
	var maxJobs, sumJobs float64
	for i := range pb.Backends {
		j := float64(pb.Backends[i].Jobs - pa.Backends[i].Jobs)
		maxJobs, sumJobs = max(maxJobs, j), sumJobs+j
	}
	ms.put("cluster.backend_job_skew", "ratio", ratio(maxJobs*float64(len(pb.Backends)), sumJobs))
	affinity := 0.0
	if r.st.gw != nil {
		// 1.0 = every pattern was characterized on exactly one backend.
		affinity = ratio(float64(b.CacheEntries), float64(len(r.in.patterns)))
	}
	ms.put("cluster.affinity_entries_ratio", "ratio", affinity)
}
