package engine

import (
	"sync"

	"repro/internal/adapt"
	"repro/internal/clock"
	"repro/internal/pattern"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// cacheEntry is one memoized adaptive decision. The decision fields
// (profile, rec, scheme) are written under once.Do at first sight and
// thereafter only by the recalibration subsystem under mu; runDirect
// snapshots them under mu.
type cacheEntry struct {
	once    sync.Once
	profile *pattern.Profile
	// rec is the decision algorithm's answer for profile: the scheme's
	// name and the rationale reported in Result.Why.
	rec    adapt.Recommendation
	scheme reduction.Scheme

	mu sync.Mutex

	// Drift-detector state (recal.go), guarded by mu. ewmaNs is the
	// running cost estimate, anchorNs the cost the entry stabilized at
	// after its decision (seeded once seen reaches RecalSeedExecs),
	// execs counts executions toward the next periodic re-profile,
	// stale flags the entry for re-inspection, reinspecting serializes
	// re-inspections (one job at a time, so hysteresis counts
	// distinct epochs, not one instant sampled by several workers), and
	// confirm counts consecutive re-inspections that recommended
	// pending — a change of mind restarts the count.
	ewmaNs       float64
	anchorNs     float64
	seen         int
	execs        uint64
	stale        bool
	reinspecting bool
	confirm      int
	pending      string
	// decGen bumps on scheme switches: a job snapshots it with the
	// decision, and recordCost drops measurements whose decision was
	// replaced while they executed — a straggler's old-scheme cost must
	// not seed the new scheme's freshly reset anchor.
	decGen uint64

	// Resident-result state (resident.go), guarded by mu. res is the
	// armed resident, nil until a direct execution arms it; lastHashes
	// are the segment hashes of the entry's previous direct run on a
	// hit, which the next one compares to tell its content came back.
	res        *resident
	lastHashes []uint64
}

// newDecision bumps the decision generation and drops what the old
// decision produced: the resident, whose bits are the old scheme's, and
// the recorded segment hashes. Callers hold mu.
func (en *cacheEntry) newDecision() {
	en.decGen++
	en.res, en.lastHashes = nil, en.lastHashes[:0]
}

// install records the decision for prof and points the entry at the
// recommended scheme. Callers hold mu (or are inside the entry's once.Do).
func (en *cacheEntry) install(prof *pattern.Profile, rec adapt.Recommendation) {
	en.profile = prof
	en.rec = rec
	en.scheme = adapt.SchemeFor(rec)
}

// decisionCache is the decision cache: CLOCK-evicted entries keyed by
// fingerprint, sharded by the fingerprint's low bits so concurrent lookups
// of distinct patterns never contend on a global lock. An evicted pattern
// is simply re-inspected at its next sight.
type decisionCache struct {
	*clock.Sharded[*cacheEntry]
}

// newDecisionCache builds a decision cache holding at most maxEntries:
// one lock shard per 64 entries, rounded down to a power of two and
// clamped to 1..16, each holding an equal share (the 1024 default is 16
// shards of 64). Up to shards-1 entries of maxEntries go unused when the
// shards do not divide it.
func newDecisionCache(maxEntries int) decisionCache {
	shards := 1
	for shards < 16 && shards*2*64 <= maxEntries {
		shards *= 2
	}
	return decisionCache{clock.NewSharded[*cacheEntry](shards, shards*(maxEntries/shards))}
}

// get returns the entry for fp, creating (and, at capacity, evicting) as
// needed. The boolean reports whether the entry already existed. A new
// entry enters unreferenced: it must be seen again to outlive a sweep.
func (c decisionCache) get(fp uint64) (*cacheEntry, bool) {
	s := c.Shard(fp)
	s.Lock()
	defer s.Unlock()
	e, ok := s.Get(fp)
	if !ok {
		e = &cacheEntry{}
		s.Put(fp, e)
	}
	return e, ok
}

// lookup returns the decision-cache entry for the loop's fingerprint,
// characterizing and deciding on first sight. The boolean reports a hit.
func (e *Engine) lookup(l *trace.Loop, fp uint64) (*cacheEntry, bool) {
	entry, ok := e.cache.get(fp)
	miss := false
	entry.once.Do(func() {
		miss = true
		prof := e.characterize(l)
		entry.install(prof, adapt.Recommend(prof))
	})
	return entry, ok && !miss
}
