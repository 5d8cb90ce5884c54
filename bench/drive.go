package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/workloads"
)

// config holds the run sizes. Defaults are the benchmark; the tests shrink
// them to finish in seconds. None of them is a command-line option except
// seconds.
type config struct {
	seconds       float64       // timed measurement length (the discarded window is extra)
	refSlice      time.Duration // length of one reference slice between windows
	setups        int           // least set-ups per timed run; setup_s is their median
	setupFill     float64       // a workload that sets up fast repeats until this many seconds
	warmJobs      int           // stream jobs after every pattern ran once
	warmDeltas    int           // deltas per session in warm-up
	traceJobs     int           // fixed job count of the traced pass
	traceDeltas   int           // fixed delta count of the traced pass (all sessions)
	stackJobs     int           // jobs per stack in the stack.* ratio probe
	churnPatterns int           // churn population; 1.5x the decision cache
	deltaSteps    int           // batches per session stream
	probeLoops    int           // population sample the layer probes time
	probeReps     int           // timed repetitions per probe point
	outDir        string        // where trace and result files go
}

func defaultConfig() config {
	return config{
		seconds: 15, refSlice: 250 * time.Millisecond, setups: 3, setupFill: 1.5, warmJobs: 1024, warmDeltas: 256,
		traceJobs: 4096, traceDeltas: 2048, stackJobs: 4096,
		churnPatterns: 1536, deltaSteps: 16384, probeLoops: 24, probeReps: 3,
		outDir: "out",
	}
}

// minWindows is the least number of measured windows a timed run has: one
// per second of -seconds, but never fewer. One more, before them, is
// discarded. Every end-to-end metric is the median over windows.
const minWindows = 5

// maxSetups caps the set-ups one run repeats for setup_s.
const maxSetups = 9

// tally counts operations for the whole process run: everything the
// harness asked of the stack, including set-up and warm-up.
type tally struct {
	attempted, busy, connLost, errs, mismatches, verified atomic.Int64
	logged                                                atomic.Int32
}

func (t *tally) fail(op string, err error) {
	switch {
	case errors.Is(err, client.ErrBusy):
		t.busy.Add(1)
	case errors.Is(err, client.ErrConnLost):
		t.connLost.Add(1)
	default:
		t.errs.Add(1)
	}
	t.log("%s: %v", op, err)
}

func (t *tally) mismatch(what string) {
	t.mismatches.Add(1)
	t.log("oracle mismatch: %s", what)
}

// log reports the first few failures; a broken run would otherwise print
// one line per job.
func (t *tally) log(format string, args ...any) {
	if t.logged.Add(1) <= 8 {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

func (t *tally) failed() int64 {
	return t.busy.Load() + t.connLost.Load() + t.errs.Load() + t.mismatches.Load()
}

// matches is cmd/reduxserve's result check: 1e-9·(1+|want|) per element.
func matches(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			return false
		}
	}
	return true
}

// pending is an outstanding job on whichever API the stack exposes.
type pending struct {
	eh *engine.Handle
	ch *client.Handle
}

func (p pending) wait() (engine.Result, error) {
	if p.eh != nil {
		return p.eh.Wait(), nil
	}
	return p.ch.Wait()
}

// slot is one of a submitter's outstanding-job positions. Its dst buffer
// persists across phases so steady-state submission allocates nothing in
// the harness.
type slot struct {
	p                pending
	busy, check      bool
	pat              int
	job              int64
	start, submitted time.Time
	dst              []float64
}

// sessState is one streaming session's driver-side state.
type sessState struct {
	ds     *workloads.DeltaStream
	cs     *client.Session
	h      *client.Handle // the one outstanding delta
	step   int            // next batch to submit
	issued int64          // operations issued in the current phase
	job    int64
	dst    []float64
	// base is the reference for the open; ckpt[n] the reference after n
	// steps, kept for every ckptEvery'th step and the last.
	base             []float64
	ckpt             map[int][]float64
	start, submitted time.Time
}

// phase is one stretch of driving: count-based (limit > 0) or until stop.
type phase struct {
	stream    []int // pattern index per position; defaults to the workload's
	start     int64 // stream position of job 0
	limit     int64 // jobs (stream) or operations over all sessions; 0 = until stop
	verifyAll bool  // check every job, not 1 in sampleEvery
	stop      *atomic.Bool
	rec       *recorder
	spans     *spanLog
	next      atomic.Int64
}

// recorder keeps a phase's exact per-operation latencies, one slice per
// submitter so recording takes no lock.
type recorder struct {
	lats [][]int64 // [submitter] nanoseconds
}

func newRecorder() *recorder {
	rc := &recorder{lats: make([][]int64, submitters())}
	for k := range rc.lats {
		rc.lats[k] = make([]int64, 0, 1<<14)
	}
	return rc
}

func (rc *recorder) add(k int, d time.Duration) { rc.lats[k] = append(rc.lats[k], int64(d)) }

// sorted returns the latencies of all submitters, ascending.
func (rc *recorder) sorted() []int64 {
	var all []int64
	for _, l := range rc.lats {
		all = append(all, l...)
	}
	slices.Sort(all)
	return all
}

// rig is one set-up workload: inputs, oracle, booted stack, warm caches.
type rig struct {
	w     workload
	cfg   config
	in    inputs
	st    *stack
	tally *tally
	// want[p] is pattern p's sequential reference when a sampled stream
	// position uses it; other patterns are checked once, during set-up,
	// against a reference computed on the spot (1536 retained churn
	// references would be 100 MB of live heap skewing GC cost).
	want  [][]float64
	pos   int64 // stream position the next phase starts at
	slots [][]slot
	sess  []*sessState
}

// setUp generates the inputs, computes the oracle, boots the stack and
// warms it by job count. Its duration is setup_s.
func setUp(w workload, seed int64, cfg config, t *tally) (*rig, error) {
	r := &rig{w: w, cfg: cfg, tally: t, in: generate(w, seed, cfg)}
	if w.session {
		for _, ds := range r.in.deltas {
			ss := &sessState{ds: ds, base: ds.Base.RunSequential(), ckpt: make(map[int][]float64)}
			mirror := ds.Base.Clone()
			for i, batch := range ds.Batches {
				workloads.ApplyDeltas(mirror, batch)
				if n := i + 1; n%ckptEvery == 0 || n == len(ds.Batches) {
					ss.ckpt[n] = mirror.RunSequential()
				}
			}
			r.sess = append(r.sess, ss)
		}
	} else {
		r.want = make([][]float64, len(r.in.patterns))
		for pos := 0; pos < len(r.in.stream); pos += sampleEvery {
			if p := r.in.stream[pos]; r.want[p] == nil {
				r.want[p] = r.in.patterns[p].RunSequential()
			}
		}
		r.slots = make([][]slot, submitters())
		for k := range r.slots {
			r.slots[k] = make([]slot, window)
		}
	}
	st, err := bootStack(w.stack)
	if err != nil {
		return nil, err
	}
	r.st = st
	if w.session {
		// The first operation of every session is its open.
		r.run(&phase{limit: int64(sessions * (1 + cfg.warmDeltas))})
	} else {
		once := make([]int, len(r.in.patterns))
		for i := range once {
			once[i] = i
		}
		r.run(&phase{stream: once, limit: int64(len(once)), verifyAll: true})
		r.pos = 0
		r.run(&phase{limit: int64(cfg.warmJobs)})
	}
	return r, nil
}

func (r *rig) close() error {
	var err error
	for _, ss := range r.sess {
		if ss.cs != nil {
			err = errors.Join(err, ss.cs.Close())
		}
	}
	return errors.Join(err, r.st.close())
}

// run drives one phase to its end and returns with nothing outstanding.
func (r *rig) run(ph *phase) {
	if ph.stream == nil {
		ph.stream = r.in.stream
	}
	ph.start = r.pos
	for _, ss := range r.sess {
		ss.issued = 0
	}
	var wg sync.WaitGroup
	for k := 0; k < submitters(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.w.session {
				r.driveSessions(k, ph)
			} else {
				r.driveStream(k, ph)
			}
		}()
	}
	wg.Wait()
	r.pos += ph.next.Load()
}

func (ph *phase) stopped() bool { return ph.stop != nil && ph.stop.Load() }

// driveStream keeps window jobs outstanding: wait for the oldest, issue
// the stream's next into its slot. Latency is submit call → Wait return
// with waits in issue order, which is what a pipelining caller observes.
func (r *rig) driveStream(k int, ph *phase) {
	slots := r.slots[k]
	head := 0
	for ; ; head = (head + 1) % window {
		s := &slots[head]
		if s.busy {
			r.complete(k, s, ph)
		}
		if ph.stopped() {
			break
		}
		idx := ph.next.Add(1) - 1
		if ph.limit > 0 && idx >= ph.limit {
			ph.next.Add(-1)
			break
		}
		r.issue(s, idx, ph)
	}
	for i := 1; i < window; i++ {
		if s := &slots[(head+i)%window]; s.busy {
			r.complete(k, s, ph)
		}
	}
}

func (r *rig) issue(s *slot, idx int64, ph *phase) {
	pos := int((ph.start + idx) % int64(len(ph.stream)))
	s.pat, s.job = ph.stream[pos], idx
	s.check = ph.verifyAll || pos%sampleEvery == 0
	l := r.in.patterns[s.pat]
	r.tally.attempted.Add(1)
	var err error
	s.start = time.Now()
	if r.st.eng != nil {
		s.p.eh, err = r.st.eng.SubmitAsyncInto(l, s.dst)
	} else {
		s.p.ch, err = r.st.cl.SubmitAsyncInto(l, s.dst)
	}
	if ph.spans != nil {
		s.submitted = time.Now()
	}
	if err != nil {
		r.tally.fail("submit", err)
		return
	}
	s.busy = true
}

func (r *rig) complete(k int, s *slot, ph *phase) {
	var waitStart time.Time
	if ph.spans != nil {
		waitStart = time.Now()
	}
	res, err := s.p.wait()
	end := time.Now()
	s.busy = false
	if err != nil {
		r.tally.fail("job", err)
		return
	}
	s.dst = res.Values
	if s.check {
		want := r.want[s.pat]
		if want == nil {
			want = r.in.patterns[s.pat].RunSequential()
		}
		r.tally.verified.Add(1)
		if !matches(res.Values, want) {
			r.tally.mismatch(r.in.patterns[s.pat].Name)
		}
	}
	if ph.rec != nil {
		ph.rec.add(k, end.Sub(s.start))
	}
	if ph.spans != nil {
		ph.spans.job(k, s.job, r.w.stack, "submit", s.start, s.submitted, waitStart, end)
	}
}

// driveSessions drives this submitter's sessions round robin with one
// operation outstanding per session: open, every delta in order, close,
// open again. A count-based phase gives each session an equal share, so
// what each session has applied at the end does not depend on timing.
func (r *rig) driveSessions(k int, ph *phase) {
	quota := ph.limit / int64(len(r.sess))
	for active := true; active; {
		active = false
		for i := k; i < len(r.sess); i += submitters() {
			ss := r.sess[i]
			if ss.h != nil {
				r.completeDelta(k, ss, ph)
			}
			if ph.stopped() || (ph.limit > 0 && ss.issued >= quota) {
				continue
			}
			active = true
			ss.issued++
			ss.job = ph.next.Add(1) - 1
			r.sessionOp(k, ss, ph)
		}
	}
}

func (r *rig) sessionOp(k int, ss *sessState, ph *phase) {
	r.tally.attempted.Add(1)
	ss.start = time.Now()
	switch {
	case ss.cs == nil:
		cs, res, err := r.st.cl.OpenSession(ss.ds.Base)
		end := time.Now()
		if err != nil {
			r.tally.fail("open session", err)
			return
		}
		ss.cs, ss.step, ss.dst = cs, 0, res.Values
		r.tally.verified.Add(1)
		if !matches(res.Values, ss.base) {
			r.tally.mismatch("session open")
		}
		r.syncOpDone(k, ss, ph, "open", end)
	case ss.step == len(ss.ds.Batches):
		err := ss.cs.Close()
		end := time.Now()
		ss.cs = nil
		if err != nil {
			r.tally.fail("close session", err)
			return
		}
		r.syncOpDone(k, ss, ph, "close", end)
	default:
		h, err := ss.cs.SubmitDeltaAsyncInto(ss.ds.Batches[ss.step], ss.dst)
		if ph.spans != nil {
			ss.submitted = time.Now()
		}
		if err != nil {
			r.tally.fail("submit delta", err)
			r.dropSession(ss)
			return
		}
		ss.h = h
	}
}

func (r *rig) syncOpDone(k int, ss *sessState, ph *phase, op string, end time.Time) {
	if ph.rec != nil {
		ph.rec.add(k, end.Sub(ss.start))
	}
	if ph.spans != nil {
		ph.spans.job(k, ss.job, r.w.stack, op, ss.start, end, end, end)
	}
}

// dropSession abandons a session whose state can no longer be trusted;
// the next operation re-opens it from the base loop.
func (r *rig) dropSession(ss *sessState) {
	ss.cs.Close() // best effort: the failure is already counted
	ss.cs, ss.h = nil, nil
}

func (r *rig) completeDelta(k int, ss *sessState, ph *phase) {
	var waitStart time.Time
	if ph.spans != nil {
		waitStart = time.Now()
	}
	res, err := ss.h.Wait()
	end := time.Now()
	ss.h = nil
	if err != nil {
		r.tally.fail("delta", err)
		r.dropSession(ss)
		return
	}
	ss.dst = res.Values
	ss.step++
	if want := ss.ckpt[ss.step]; want != nil {
		r.tally.verified.Add(1)
		if !matches(res.Values, want) {
			r.tally.mismatch(fmt.Sprintf("session step %d", ss.step))
		}
	}
	if ph.rec != nil {
		ph.rec.add(k, end.Sub(ss.start))
	}
	if ph.spans != nil {
		ph.spans.job(k, ss.job, r.w.stack, "submit", ss.start, ss.submitted, waitStart, end)
	}
}

// mark is a reading of the process clocks at a window boundary.
type mark struct {
	t       time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative heap bytes allocated
	gcPause uint64        // cumulative stop-the-world nanoseconds
}

func takeMark() mark {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		t:       time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcPause: ms.PauseTotalNs,
	}
}

// reference is the yardstick every timed quantity is read against. The
// box this runs on is a 2-vCPU VM whose cores and caches are shared with
// neighbours: the same code runs 25-40 % slower for minutes at a time, so
// a raw time compares two states of the host, not two versions of the
// program. The reference is the harness's own plain sequential scatter-add
// over the workload's own loops (the classic baseline of a parallel
// reduction), one thread per submitter, run for a slice before and after
// every set-up and every window while the stack is idle. Its rate over the
// workload's nominal rate is the machine's speed during that stretch; it
// uses none of the program's code, so no change to the program moves it.
type reference struct {
	refs    [][]int32 // each loop's flat subscript array
	elems   []int
	out     [][]float64 // one private result array per thread
	slice   time.Duration
	nominal float64 // Mref/s that reads as speed 1.0
}

func newReference(w workload, in inputs, slice time.Duration) *reference {
	rf := &reference{slice: slice, nominal: w.nominalMrefs, out: make([][]float64, submitters())}
	most := 0
	for _, l := range in.patterns {
		_, refs := l.Flat()
		rf.refs = append(rf.refs, refs)
		rf.elems = append(rf.elems, l.NumElems)
		most = max(most, l.NumElems)
	}
	for k := range rf.out {
		rf.out[k] = make([]float64, most)
	}
	return rf
}

// speed runs the reference for one slice and returns its rate, all threads
// together, as a share of the nominal rate.
func (rf *reference) speed() float64 {
	done := make([]int, len(rf.out))
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range rf.out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := k; time.Since(t0) < rf.slice; i++ {
				j := i % len(rf.refs)
				out := rf.out[k][:rf.elems[j]]
				clear(out)
				for r, idx := range rf.refs[j] {
					out[idx] += float64(r)
				}
				n += len(rf.refs[j])
			}
			done[k] = n
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range done {
		total += n
	}
	return float64(total) / 1e6 / time.Since(t0).Seconds() / rf.nominal
}

// windowStat is one measured window's end-to-end readings. The times are
// at machine speed 1.0: raw readings scaled by speed, the mean of the
// reference slices on either side of the window.
type windowStat struct {
	ops                                        int
	speed, rawJobsPerS                         float64
	jobsPerS, p50, p95, cpuPerJob, allocPerJob float64
}

// timedResult is a timed run: per-window stats plus the diagnostics taken
// over all measured windows together (raw, not scaled).
type timedResult struct {
	wins      []windowStat
	ops       int
	p99, max  float64 // microseconds, all measured windows pooled
	gcPauseUs float64
}

// timed drives the rig, tracing off, for one discarded window and then the
// measured ones, each its own phase with a reference slice on either side.
// before is the speed read just before the call.
func (r *rig) timed(seconds float64, ref *reference, before float64) timedResult {
	n := max(minWindows, int(seconds))
	each := time.Duration(seconds / float64(n) * float64(time.Second))
	var res timedResult
	var pooled []int64
	for w := 0; w <= n; w++ {
		var stop atomic.Bool
		ph := &phase{stop: &stop, rec: newRecorder()}
		time.AfterFunc(each, func() { stop.Store(true) })
		a := takeMark()
		r.run(ph)
		b := takeMark()
		after := ref.speed()
		speed := (before + after) / 2
		before = after
		if w == 0 {
			continue
		}
		lats := ph.rec.sorted()
		ops := float64(len(lats))
		raw := ops / b.t.Sub(a.t).Seconds()
		res.wins = append(res.wins, windowStat{
			ops:         len(lats),
			speed:       speed,
			rawJobsPerS: raw,
			jobsPerS:    raw / speed,
			p50:         quantileNs(lats, 0.50) * speed,
			p95:         quantileNs(lats, 0.95) * speed,
			cpuPerJob:   ratio(float64((b.cpu-a.cpu).Microseconds()), ops) * speed,
			allocPerJob: ratio(float64(b.alloc-a.alloc), ops),
		})
		pooled = append(pooled, lats...)
		res.gcPauseUs += float64(b.gcPause-a.gcPause) / 1e3
	}
	slices.Sort(pooled)
	res.ops = len(pooled)
	res.p99 = quantileNs(pooled, 0.99)
	res.max = quantileNs(pooled, 1)
	return res
}

// over returns the per-window values of one field.
func (t timedResult) over(f func(windowStat) float64) []float64 {
	vs := make([]float64, len(t.wins))
	for i, w := range t.wins {
		vs[i] = f(w)
	}
	return vs
}
