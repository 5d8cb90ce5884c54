package engine

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/pattern"
	"repro/internal/trace"
)

// Online recalibration: the paper's claim is *continuous* adaptivity —
// the runtime keeps measuring and re-selects the reduction scheme when
// the application's access pattern shifts phase — but a decision cache
// alone decides once per fingerprint and trusts that entry forever. The
// fingerprint is a strided sample of the subscript stream, so a loop
// whose hot set drifts between the sampled positions (a neighbor-list
// rebuild, a mesh refinement) keeps mapping onto the old entry and keeps
// executing a scheme chosen for a pattern that no longer exists.
//
// Each cache entry therefore carries a lightweight drift detector and a
// revalidation state machine:
//
//   - an EWMA of the measured execution cost, compared against the cost
//     the entry stabilized at after its decision: divergence past
//     Config.DriftRatio (either direction) marks the entry stale,
//   - a sampled re-profile every Config.RecalEvery executions: when the
//     fresh profile's pattern.Distance from the decision-time profile
//     exceeds recalDistance, the entry is marked stale even if the cost
//     happens to look steady,
//   - a stale entry is re-inspected before its next job executes:
//     fresh characterization through internal/adapt. A recommendation
//     matching the current scheme revalidates the entry (new profile and
//     cost anchor, staleness cleared); a differing recommendation must
//     repeat — same replacement scheme — on Config.RecalConfirm
//     consecutive re-inspections before the scheme actually switches;
//     hysteresis, so measurement noise cannot thrash rep<->sel on
//     alternate jobs. Re-inspections are serialized per entry so the
//     confirmations come from distinct epochs of the workload.
//
// A switch replaces the entry's scheme, profile and rationale, bumps the
// decision generation so in-flight cost measurements are discarded, and
// re-seeds the cost anchor from the next executions.

// RecalSeedExecs is how many executions of an entry the cost anchor
// waits before it is recorded: the first runs pay cold buffers, and
// anchoring on them would report drift the moment the entry warms up.
// Exported so harnesses that warm an engine before measuring drift
// (BenchmarkDriftRecovery) can submit enough executions per pattern for
// the anchor to exist.
const RecalSeedExecs = 3

const (
	// recalEWMAAlpha weights the newest execution cost in the EWMA.
	recalEWMAAlpha = 0.3
	// recalDistance is the pattern.Distance threshold past which a
	// periodic re-profile marks the entry stale (the paper's
	// re-characterization trigger; pattern.Tracker uses the same level).
	recalDistance = 0.25
	// sampleStride is the inspector's iteration stride for every
	// characterization the engine runs.
	sampleStride = 8
)

// recalEnabled reports whether the recalibration subsystem runs.
func (e *Engine) recalEnabled() bool { return !e.cfg.DisableRecal }

// characterize runs the engine's standard sampled inspector pass on l.
func (e *Engine) characterize(l *trace.Loop) *pattern.Profile {
	return pattern.CharacterizeSampled(l, e.cfg.Platform.Procs, e.cfg.Platform.Cfg.L2Bytes, sampleStride)
}

// recordCost feeds one direct execution's measured cost into the entry's
// drift detector, and runs the periodic sampled re-profile when the
// entry's execution count comes due. decSeen is the decision generation
// the job executed under; a measurement taken under a decision that was
// switched away mid-flight is dropped.
func (e *Engine) recordCost(entry *Entry, l *trace.Loop, elapsed time.Duration, decSeen uint64) {
	ns := float64(elapsed.Nanoseconds())
	entry.mu.Lock()
	if entry.decGen != decSeen {
		entry.mu.Unlock()
		return
	}
	if entry.ewmaNs == 0 {
		entry.ewmaNs = ns
	} else {
		entry.ewmaNs = recalEWMAAlpha*ns + (1-recalEWMAAlpha)*entry.ewmaNs
	}
	if entry.seen < RecalSeedExecs {
		entry.seen++
		if entry.seen == RecalSeedExecs {
			entry.anchorNs = entry.ewmaNs
		}
	}
	entry.execs++
	needProfile := false
	if !entry.stale {
		switch {
		case entry.anchorNs > 0 &&
			(entry.ewmaNs > entry.anchorNs*e.cfg.DriftRatio ||
				entry.anchorNs > entry.ewmaNs*e.cfg.DriftRatio):
			// Cost drifted past the ratio in either direction. A cost
			// collapse is as suspicious as a blow-up: both mean the
			// premises the scheme was chosen under no longer hold.
			entry.stale = true
		case entry.execs >= uint64(e.cfg.RecalEvery):
			entry.execs = 0
			needProfile = true
		}
	}
	baseline := entry.profile
	entry.mu.Unlock()
	if !needProfile {
		return
	}
	// The re-profile runs outside the entry lock: characterization is
	// O(refs/stride) and same-fingerprint jobs on other workers should
	// not serialize behind it.
	fresh := e.characterize(l)
	if pattern.Distance(baseline, fresh) > recalDistance {
		entry.mu.Lock()
		// Only if the decision this comparison was made against still
		// stands: a concurrent re-inspection may have replaced the
		// profile (revalidation or switch), making the distance moot —
		// re-flagging the freshly recalibrated entry would buy a
		// pointless re-inspection and inflate the health counters.
		if entry.profile == baseline {
			entry.stale = true
		}
		entry.mu.Unlock()
	}
}

// maybeReinspect revalidates a stale entry before its job executes:
// fresh characterization of the job's loop through the decision
// algorithm, with hysteresis before a switch. It reports whether a
// re-inspection ran and whether it switched the scheme.
func (e *Engine) maybeReinspect(entry *Entry, l *trace.Loop) (reinspected, switched bool) {
	entry.mu.Lock()
	if !entry.stale || entry.reinspecting {
		entry.mu.Unlock()
		return false, false
	}
	// Claim the re-inspection: concurrent jobs of the same stale
	// fingerprint execute the current scheme unexamined rather than
	// characterizing the same instant several times — hysteresis must
	// count distinct epochs, or two workers sampling one
	// moment's noise could consume the whole confirmation budget at
	// once.
	entry.reinspecting = true
	entry.mu.Unlock()
	// Characterize outside the lock, like recordCost's periodic
	// re-profile: the stale entry's other jobs (snapshotting the
	// decision, recording costs) must not serialize behind an
	// O(refs/stride) inspector pass.
	fresh := e.characterize(l)
	rec := adapt.Recommend(fresh)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	entry.reinspecting = false
	if rec.Scheme == entry.rec.Scheme {
		// Revalidated: the decision still stands on the current pattern.
		// Re-anchor on the fresh profile and the observed cost so the
		// detector measures future drift from here, not from the old
		// phase.
		entry.profile = fresh
		entry.stale = false
		entry.confirm = 0
		entry.pending = ""
		entry.anchorNs = entry.ewmaNs
		entry.execs = 0
		return true, false
	}
	// Hysteresis counts consecutive re-inspections agreeing on the same
	// replacement; a change of mind restarts the count (the knob's
	// contract: RecalConfirm consecutive times with the same differing
	// recommendation).
	if rec.Scheme == entry.pending {
		entry.confirm++
	} else {
		entry.pending = rec.Scheme
		entry.confirm = 1
	}
	if entry.confirm < e.cfg.RecalConfirm {
		// Not yet confirmed: stay stale so the next job re-inspects
		// again; a noise blip that recommends differently once will be
		// contradicted before the hysteresis threshold is reached.
		return true, false
	}
	entry.install(fresh, rec)
	entry.newDecision()
	entry.stale = false
	entry.confirm = 0
	entry.pending = ""
	entry.ewmaNs = 0
	entry.anchorNs = 0
	entry.seen = 0
	entry.execs = 0
	return true, true
}
