package obs

import "time"

// Stage names one leg of a job's path through the stack. The engine owns
// queue-wait/inspect/execute; the serving layer owns decode, intern,
// merge (the hand-off residual), encode, write-wait and write; the
// gateway adds route, backend-wait and retry-backoff legs on top.
type Stage uint8

// The stage taxonomy, in pipeline order.
const (
	// StageDecode is wire-frame decode into the connection's scratch loop.
	StageDecode Stage = iota
	// StageIntern is canonicalization through the server's engine.Table.
	StageIntern
	// StageQueueWait is the time a job's batch sat in the engine's
	// submission queue before a worker picked it up.
	StageQueueWait
	// StageInspect is pattern characterization plus scheme selection,
	// paid once per cold fingerprint (zero on a decision-cache hit).
	StageInspect
	// StageExecute is the reduction execution itself, batch merge
	// included.
	StageExecute
	// StageMerge is the serving layer's hand-off residual: everything up
	// to the response's send not attributed to another stage (on the
	// engine path the result hand-off, destination copies and waiter
	// scheduling; about zero where the read loop answers a job itself).
	StageMerge
	// StageEncode is RESULT wire encoding.
	StageEncode
	// StageWriteWait is the time an encoded RESULT waits for the write
	// loop: from its send to the start of the write that carries it.
	StageWriteWait
	// StageWrite is the socket write that carries the RESULT (one
	// vectored write may carry several, each charged the whole write).
	StageWrite
	// StageRoute is gateway backend selection plus submission legs.
	StageRoute
	// StageBackendWait is the gateway's wait on backend RESULT frames,
	// summed across failover attempts.
	StageBackendWait
	// StageRetryWait is gateway backoff sleeps between BUSY retries.
	StageRetryWait

	numStages
)

var stageNames = [numStages]string{
	StageDecode:      "decode",
	StageIntern:      "intern",
	StageQueueWait:   "queue_wait",
	StageInspect:     "inspect",
	StageExecute:     "execute",
	StageMerge:       "merge",
	StageEncode:      "encode",
	StageWriteWait:   "write_wait",
	StageWrite:       "write",
	StageRoute:       "route",
	StageBackendWait: "backend_wait",
	StageRetryWait:   "retry_backoff",
}

// String returns the stage's wire/metrics label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// NumStages reports how many stages the taxonomy defines.
func NumStages() int { return int(numStages) }

// Timeline accumulates one job's per-stage durations as it moves through
// the stack. It is carried by a single goroutine at a time (the
// connection's read loop hands it to the dispatch waiter), so it needs
// no internal locking; a nil *Timeline is a valid no-op receiver so
// untraced call sites pay nothing.
type Timeline struct {
	// TraceID stitches this job's timelines across tiers; the gateway
	// forwards it to the owning backend on the SUBMIT frame.
	TraceID uint64
	// Retries counts same-backend BUSY retries (gateway only).
	Retries int
	// Failovers counts backend failovers (gateway only).
	Failovers int

	ns [numStages]int64
}

// Add accumulates d into stage s. Negative durations are dropped; a nil
// receiver is a no-op.
func (t *Timeline) Add(s Stage, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.ns[s] += int64(d)
}

// Get returns the accumulated duration of stage s (zero on nil).
func (t *Timeline) Get(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns[s])
}

// TotalNs sums every stage's accumulated nanoseconds.
func (t *Timeline) TotalNs() int64 {
	if t == nil {
		return 0
	}
	var total int64
	for _, v := range t.ns {
		total += v
	}
	return total
}

// Trace freezes the timeline into a JobTrace for the slow-job ring,
// keeping only the stages that actually accumulated time.
func (t *Timeline) Trace(total time.Duration) JobTrace {
	jt := JobTrace{
		TraceID:   t.TraceID,
		TotalNs:   int64(total),
		Retries:   t.Retries,
		Failovers: t.Failovers,
	}
	n := 0
	for _, v := range t.ns {
		if v > 0 {
			n++
		}
	}
	jt.Stages = make([]StageNs, 0, n)
	for s, v := range t.ns {
		if v > 0 {
			jt.Stages = append(jt.Stages, StageNs{Stage: Stage(s).String(), Ns: v})
		}
	}
	return jt
}

// Reset zeroes the timeline for reuse (sync.Pool recycling on the
// serving hot path).
func (t *Timeline) Reset() {
	*t = Timeline{}
}

// StageSet is a fixed array of histograms, one per stage — the
// aggregation target Timelines drain into. The zero value is ready;
// observation is lock-free (see Histogram), so one StageSet can be
// shared by every connection of a server, or embedded per engine worker
// shard and merged on read.
type StageSet struct {
	hists [numStages]Histogram
}

// Observe records d into stage s's histogram.
func (ss *StageSet) Observe(s Stage, d time.Duration) {
	ss.hists[s].Observe(d)
}

// ObserveTimeline records every stage a timeline accumulated time in.
// A nil timeline is a no-op.
func (ss *StageSet) ObserveTimeline(t *Timeline) {
	if t == nil {
		return
	}
	for s, v := range t.ns {
		if v > 0 {
			ss.hists[s].ObserveNs(uint64(v))
		}
	}
}

// Snapshot returns a summary per stage that has at least one
// observation, in pipeline order.
func (ss *StageSet) Snapshot() []StageSummary {
	var out []StageSummary
	for s := range ss.hists {
		snap := ss.hists[s].Snapshot()
		if snap.Count != 0 {
			out = append(out, StageSummary{Name: Stage(s).String(), Snap: snap})
		}
	}
	return out
}

// StageSummary pairs a stage label with its histogram snapshot; it is
// the element engine.Stats and the STATS frame carry.
type StageSummary struct {
	// Name is the stage label (Stage.String of a known stage, but
	// summaries decoded off the wire may carry labels this build does
	// not know — they merge by name regardless).
	Name string
	// Snap is the stage's histogram snapshot.
	Snap Snapshot
}

// MergeStageSummaries merges src into dst by stage name (order of first
// appearance preserved) and returns the merged slice.
func MergeStageSummaries(dst, src []StageSummary) []StageSummary {
	for _, s := range src {
		found := false
		for i := range dst {
			if dst[i].Name == s.Name {
				dst[i].Snap.Merge(s.Snap)
				found = true
				break
			}
		}
		if !found {
			cp := s
			cp.Snap.Buckets = append([]uint64(nil), s.Snap.Buckets...)
			dst = append(dst, cp)
		}
	}
	return dst
}
