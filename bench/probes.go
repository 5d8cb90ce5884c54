package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/adapt"
	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The layer probes time one layer's public entry points single-threaded,
// on the workload's own loops, after the stack is closed so nothing else
// runs. They are the numbers an optimisation inside that layer moves
// first; whether the end-to-end metrics follow is what the timed run says.

// sampleStride is the engine's default inspector sampling stride.
const sampleStride = 8

// probeSample is the part of the population the probes time: the first
// probeLoops patterns, which for churn is four of each of the six specs.
func probeSample(in inputs, cfg config) []*trace.Loop {
	return in.patterns[:min(len(in.patterns), cfg.probeLoops)]
}

// fastest returns the smallest of reps timings of f, after one untimed
// call that warms pools and caches.
func fastest(reps int, f func()) time.Duration {
	f()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		best = min(best, time.Since(t0))
	}
	return best
}

// probeKernels times every scheme's pooled RunInto on every sampled loop,
// the inspector and the decision, and scores the decision against the
// measured fastest scheme (ROADMAP 2(a)'s regret, on the real host).
func probeKernels(loops []*trace.Loop, cfg config, ms *metricSet) {
	plat := engineConfig().Platform
	procs := plat.Procs
	ex := &reduction.Exec{Pool: reduction.NewBufferPool(), MergeBlockElems: reduction.MergeBlockForCache(plat.Cfg.L2Bytes, procs)}
	schemes := reduction.All()
	times := make([][]time.Duration, len(schemes)) // [scheme][loop]
	var refs float64
	for _, l := range loops {
		refs += float64(l.TotalRefs())
	}
	for si, s := range schemes {
		times[si] = make([]time.Duration, len(loops))
		var total time.Duration
		for li, l := range loops {
			var out []float64
			times[si][li] = fastest(cfg.probeReps, func() { out = s.RunInto(l, procs, ex, out) })
			total += times[si][li]
		}
		ms.put("reduction."+s.Name()+"_ns_per_ref", "ns", ratio(float64(total.Nanoseconds()), refs))
	}

	var charTotal, recTotal time.Duration
	var regret float64
	var scored, mispicks int
	for li, l := range loops {
		var prof *pattern.Profile
		charTotal += fastest(cfg.probeReps, func() {
			prof = pattern.CharacterizeSampled(l, procs, plat.Cfg.L2Bytes, sampleStride)
		})
		var rec adapt.Recommendation
		recTotal += fastest(cfg.probeReps, func() { rec = adapt.Recommend(prof) })
		pick, best := -1, 0
		for si, s := range schemes {
			if s.Name() == rec.Scheme {
				pick = si
			}
			if times[si][li] < times[best][li] {
				best = si
			}
		}
		if pick < 0 {
			continue // a hardware-path recommendation has no software time
		}
		scored++
		regret += float64(times[pick][li])/float64(times[best][li]) - 1
		if pick != best {
			mispicks++
		}
	}
	n := float64(len(loops))
	ms.put("pattern.characterize_us", "us", ratio(float64(charTotal.Microseconds()), n))
	ms.put("adapt.recommend_ns", "ns", ratio(float64(recTotal.Nanoseconds()), n))
	ms.put("adapt.pick_regret_pct", "%", 100*ratio(regret, float64(scored)))
	ms.put("adapt.mispicks", "count", float64(mispicks))

	// The simplified path, as the engine runs a one-member batch on a warm
	// segment cache: analysis and plan build, then the run that reuses
	// every segment sum.
	var build, run time.Duration
	var planned int
	for _, l := range loops {
		if l.Op != trace.OpAdd || l.NumIters() == 0 {
			continue
		}
		segIters := reduction.DefaultSegIters(l.NumIters(), procs)
		cache := reduction.NewSegCache(l, segIters)
		members := []*trace.Loop{l}
		dsts := [][]float64{make([]float64, l.NumElems)}
		var plan *reduction.SegPlan
		var err error
		build += fastest(cfg.probeReps, func() { plan, err = reduction.BuildSegPlanProcs(members, segIters, procs) })
		if err != nil {
			continue
		}
		run += fastest(cfg.probeReps, func() { plan.Run(procs, ex, cache, dsts) })
		planned++
	}
	ms.put("reduction.segplan_build_us", "us", ratio(float64(build.Microseconds()), float64(planned)))
	ms.put("reduction.segplan_run_us", "us", ratio(float64(run.Microseconds()), float64(planned)))
}

// probeIdleSubmit times one job at a time on an otherwise idle engine:
// the service-time floor under the queueing the timed run adds.
func probeIdleSubmit(loops []*trace.Loop, cfg config, ms *metricSet) error {
	eng, err := engine.New(engineConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	var dst []float64
	var lats []int64
	for rep := 0; rep <= cfg.probeReps; rep++ {
		for _, l := range loops {
			t0 := time.Now()
			res, err := eng.SubmitInto(l, dst)
			if err != nil {
				return fmt.Errorf("idle submit: %w", err)
			}
			dst = res.Values
			if rep > 0 { // the first pass fills the decision cache
				lats = append(lats, int64(time.Since(t0)))
			}
		}
	}
	slices.Sort(lats)
	ms.put("engine.idle_submit_us_p50", "us", quantileNs(lats, 0.5))
	return nil
}

// computedBytes is the memory traffic a reduction over refs references
// into elems elements implies: a 4-byte subscript read and an 8-byte
// element update per reference, and one 8-byte result write per element.
// It is computed from sizes, not measured.
func computedBytes(refs, elems float64) float64 { return 12*refs + 8*elems }

// probeStream reports the exact work and wire counts of the traced pass's
// jobs [start, start+n) and, when the workload crosses the wire, times the
// codec on those same jobs with no socket: Append* → DecodeFrame →
// Decode*Into with reused scratch, as the client and server do.
func probeStream(r *rig, start int64, n int, ms *metricSet) error {
	in := r.in
	hops := map[stackKind]float64{stackEngine: 0, stackRemote: 1, stackGateway: 2}[r.w.stack]
	var refs, moved float64
	var subBytes, resBytes float64
	var encSub, decSub, encRes, decRes time.Duration
	var scratch trace.Loop
	var off, rf []int32
	var buf []byte
	var dst []float64
	values := make(map[int][]float64)
	for j := 0; j < n; j++ {
		p := in.stream[int((start+int64(j))%int64(len(in.stream)))]
		l := in.patterns[p]
		refs += float64(l.TotalRefs())
		moved += computedBytes(float64(l.TotalRefs()), float64(l.NumElems))
		if hops == 0 {
			continue
		}
		id := uint64(j + 1)
		t0 := time.Now()
		buf = wire.AppendSubmit(buf[:0], id, l)
		t1 := time.Now()
		f, _, err := wire.DecodeFrame(buf, 0)
		if err == nil {
			off, rf, _, err = f.DecodeSubmitInto(&scratch, off, rf, 0)
		}
		if err != nil {
			return fmt.Errorf("submit codec probe: %w", err)
		}
		encSub, decSub = encSub+t1.Sub(t0), decSub+time.Since(t1)
		subBytes += float64(len(buf))

		if values[p] == nil {
			values[p] = l.RunSequential()
		}
		res := engine.Result{Values: values[p], Scheme: "simplify", Why: "probe", CacheHit: true, BatchSize: 2, Elapsed: time.Microsecond, QueueWait: time.Microsecond}
		t0 = time.Now()
		buf = wire.AppendResult(buf[:0], id, &res)
		t1 = time.Now()
		f, _, err = wire.DecodeFrame(buf, 0)
		if err == nil {
			var got engine.Result
			got, err = f.DecodeResult(dst)
			dst = got.Values
		}
		if err != nil {
			return fmt.Errorf("result codec probe: %w", err)
		}
		encRes, decRes = encRes+t1.Sub(t0), decRes+time.Since(t1)
		resBytes += float64(len(buf))
	}
	jobs := float64(n)
	us := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e3, jobs) }
	ms.put("reduction.refs_per_job", "count", ratio(refs, jobs))
	ms.put("reduction.bytes_moved_per_job_computed", "B", ratio(moved, jobs))
	ms.put("reduction.delta_apply_us", "us", 0)
	ms.put("wire.encode_submit_us", "us", us(encSub))
	ms.put("wire.decode_submit_us", "us", us(decSub))
	ms.put("wire.encode_result_us", "us", us(encRes))
	ms.put("wire.decode_result_us", "us", us(decRes))
	ms.put("wire.encode_delta_us", "us", 0)
	ms.put("wire.decode_delta_us", "us", 0)
	ms.put("wire.submit_frame_bytes", "B", ratio(subBytes, jobs))
	ms.put("wire.result_frame_bytes", "B", ratio(resBytes, jobs))
	ms.put("wire.delta_frame_bytes", "B", 0)
	ms.put("wire.bytes_per_job", "B", hops*ratio(subBytes+resBytes, jobs))
	return nil
}

// probeSessions is probeStream for the session workload: each session's
// traced deltas [start, start+n) go through the delta codec and through a
// private reduction.DeltaState, which also yields the exact segment and
// reference counts an apply recomputes.
func probeSessions(r *rig, start, n int, ms *metricSet) error {
	plat := engineConfig().Platform
	procs := plat.Procs
	ex := &reduction.Exec{Pool: reduction.NewBufferPool(), MergeBlockElems: reduction.MergeBlockForCache(plat.Cfg.L2Bytes, procs)}
	var refs, moved, deltaBytes, resBytes float64
	var encDelta, decDelta, encRes, decRes, apply time.Duration
	var buf []byte
	var scratch []reduction.RefDelta
	var rdst []float64
	var ops float64
	for i, ss := range r.sess {
		base := ss.ds.Base
		dst := make([]float64, base.NumElems)
		state, err := reduction.NewDeltaState(base, 0, procs, ex, dst)
		if err != nil {
			return fmt.Errorf("delta probe: %w", err)
		}
		refsPerSeg := float64(state.SegIters()) * ratio(float64(base.TotalRefs()), float64(base.NumIters()))
		for step := 0; step < start+n && step < len(ss.ds.Batches); step++ {
			batch := ss.ds.Batches[step]
			t0 := time.Now()
			st, err := state.Apply(batch, procs, ex, dst)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("delta probe: %w", err)
			}
			if step < start {
				continue // replayed only to reach the traced pass's state
			}
			ops++
			apply += d
			refs += float64(st.Computed) * refsPerSeg
			moved += computedBytes(float64(st.Computed)*refsPerSeg, float64(base.NumElems))

			id := uint64(step + 1)
			t0 = time.Now()
			buf = wire.AppendDelta(buf[:0], id, uint64(i+1), batch)
			t1 := time.Now()
			f, _, err := wire.DecodeFrame(buf, 0)
			if err == nil {
				_, scratch, err = f.DecodeDelta(scratch)
			}
			if err != nil {
				return fmt.Errorf("delta codec probe: %w", err)
			}
			encDelta, decDelta = encDelta+t1.Sub(t0), decDelta+time.Since(t1)
			deltaBytes += float64(len(buf))

			res := engine.Result{Values: dst, Scheme: "delta", CacheHit: true, BatchSize: 1, Elapsed: time.Microsecond, QueueWait: time.Microsecond, SessionGen: id + 1}
			t0 = time.Now()
			buf = wire.AppendResult(buf[:0], id, &res)
			t1 = time.Now()
			f, _, err = wire.DecodeFrame(buf, 0)
			if err == nil {
				var got engine.Result
				got, err = f.DecodeResult(rdst)
				rdst = got.Values
			}
			if err != nil {
				return fmt.Errorf("result codec probe: %w", err)
			}
			encRes, decRes = encRes+t1.Sub(t0), decRes+time.Since(t1)
			resBytes += float64(len(buf))
		}
	}
	us := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e3, ops) }
	ms.put("reduction.refs_per_job", "count", ratio(refs, ops))
	ms.put("reduction.bytes_moved_per_job_computed", "B", ratio(moved, ops))
	ms.put("reduction.delta_apply_us", "us", us(apply))
	ms.put("wire.encode_submit_us", "us", 0)
	ms.put("wire.decode_submit_us", "us", 0)
	ms.put("wire.encode_result_us", "us", us(encRes))
	ms.put("wire.decode_result_us", "us", us(decRes))
	ms.put("wire.encode_delta_us", "us", us(encDelta))
	ms.put("wire.decode_delta_us", "us", us(decDelta))
	ms.put("wire.submit_frame_bytes", "B", 0)
	ms.put("wire.result_frame_bytes", "B", ratio(resBytes, ops))
	ms.put("wire.delta_frame_bytes", "B", ratio(deltaBytes, ops))
	ms.put("wire.bytes_per_job", "B", ratio(deltaBytes+resBytes, ops))
	return nil
}
