package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/clock"
	"repro/internal/pattern"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// Entry is one fingerprint's record in a Table, which Table.Canonical and
// Table.Lookup hand back for Engine.ServeEntry. The decision fields
// (profile, rec, scheme) are written under once.Do at first sight and
// thereafter only by the recalibration subsystem under mu; runDirect
// snapshots them under mu.
type Entry struct {
	// loop and id are the canonical loop a network server interned and
	// its handle (nil and 0 if none), guarded by the shard's mutex.
	loop *trace.Loop
	id   uint64

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
	// Neither depends on the decision, so a scheme switch keeps both.
	res        *resident
	lastHashes []uint64
}

// newDecision bumps the decision generation, which only the drift
// detector reads. Callers hold mu.
func (en *Entry) newDecision() {
	en.decGen++
}

// install records the decision for prof and points the entry at the
// recommended scheme. Callers hold mu (or are inside the entry's once.Do).
func (en *Entry) install(prof *pattern.Profile, rec adapt.Recommendation) {
	en.profile = prof
	en.rec = rec
	en.scheme = adapt.SchemeFor(rec)
}

// Table is the engine's fingerprint table: CLOCK-evicted entries keyed
// by fingerprint, sharded by its low bits so lookups of distinct patterns
// never contend on a global lock. An entry is one pattern's decision,
// drift state, resident and, on a daemon, interned loop and handle. An
// evicted pattern is re-inspected at its next sight; its handle misses.
type Table struct {
	*clock.Sharded[*Entry]
	// lastID issues handle IDs. They are table-wide and never reused, so a
	// handle that outlived its loop (evicted, displaced by a colliding
	// pattern, re-interned later) can only miss — never name another loop.
	lastID atomic.Uint64
}

// NewTable builds shards lock shards (rounded up to a power of two)
// splitting capacity. A network server without an engine (a gateway)
// builds one whose entries only intern.
func NewTable(shards, capacity int) *Table {
	return &Table{Sharded: clock.NewSharded[*Entry](shards, capacity)}
}

// tableFor builds the engine's table holding at most maxEntries:
// one lock shard per 64 entries, rounded down to a power of two and
// clamped to 1..16, each holding an equal share (the 1024 default is 16
// shards of 64). Up to shards-1 entries of maxEntries go unused when the
// shards do not divide it.
func tableFor(maxEntries int) *Table {
	shards := 1
	for shards < 16 && shards*2*64 <= maxEntries {
		shards *= 2
	}
	return NewTable(shards, shards*(maxEntries/shards))
}

// get returns the entry for fp, creating (and, at capacity, evicting) as
// needed. The boolean reports whether the entry already existed. A new
// entry enters unreferenced: it must be seen again to outlive a sweep.
func (t *Table) get(fp uint64) (*Entry, bool) {
	s := t.Shard(fp)
	s.Lock()
	defer s.Unlock()
	e, ok := s.Get(fp)
	if !ok {
		e = &Entry{}
		s.Put(fp, e)
	}
	return e, ok
}

// Lookup resolves a pattern handle: the canonical loop under fp and its
// entry when the entry still carries id, nils when the handle is gone. A
// hit marks the entry referenced exactly as Canonical does, so traffic
// by reference keeps a hot pattern resident.
func (t *Table) Lookup(fp, id uint64) (*trace.Loop, *Entry) {
	s := t.Shard(fp)
	s.Lock()
	defer s.Unlock()
	if e, ok := s.Peek(fp); ok && e.id == id {
		s.Get(fp)
		return e.loop, e
	}
	return nil, nil
}

// Canonical interns l under fp (l.Fingerprint()): it returns the entry's
// loop and handle when that loop has l's pattern (hit), else installs a
// sealed deep copy of l under a fresh handle, and either way the entry it
// resolved. l itself is never retained or sealed, so callers may decode
// into reused scratch storage. The O(refs) pattern comparison runs
// outside the shard mutex (canonical loops are immutable); otherwise
// every connection submitting one hot pattern would serialize its read
// loop behind a full trace walk.
func (t *Table) Canonical(fp uint64, l *trace.Loop) (canon *trace.Loop, id uint64, hit bool, en *Entry) {
	s := t.Shard(fp)
	s.Lock()
	var held *trace.Loop
	en, ok := s.Get(fp)
	if ok {
		held, id = en.loop, en.id
	}
	s.Unlock()

	if held != nil && held.EqualPattern(l) {
		return held, id, true, en
	}
	canon, id = l.Clone(), t.lastID.Add(1)
	canon.Seal()

	s.Lock()
	en, ok = s.Get(fp)
	switch {
	case !ok:
		// A loop shipped in full starts with a second chance: Put, then mark.
		en = &Entry{loop: canon, id: id}
		s.Put(fp, en)
		s.Get(fp)
	case en.loop != held && en.loop.EqualPattern(l):
		// A racing submission installed l's pattern meanwhile: share it.
		canon, id, hit = en.loop, en.id, true
	default:
		// No loop, or a colliding pattern's: take over (the displaced
		// pattern loses sharing, not correctness).
		en.loop, en.id = canon, id
	}
	s.Unlock()
	if !hit {
		en.rebase(canon)
	}
	return canon, id, hit, en
}

// rebase republishes the entry's resident over canon's storage when it
// answers canon in full, so later serves of canon verify by identity and
// the storage retained before can be collected. It runs as Canonical
// installs canon; a resident replaced meanwhile is left alone.
func (en *Entry) rebase(canon *trace.Loop) {
	en.mu.Lock()
	r := en.res
	en.mu.Unlock()
	if !r.answers(canon) {
		return
	}
	moved := *r
	moved.offs, moved.refs = canon.Flat()
	en.mu.Lock()
	if en.res == r {
		en.res = &moved
	}
	en.mu.Unlock()
}

// lookup returns the decision-cache entry for the loop's fingerprint,
// characterizing and deciding on first sight. The boolean reports a hit.
func (e *Engine) lookup(l *trace.Loop, fp uint64) (*Entry, bool) {
	entry, ok := e.cache.get(fp)
	miss := false
	entry.once.Do(func() {
		miss = true
		prof := e.characterize(l)
		entry.install(prof, adapt.Recommend(prof))
	})
	return entry, ok && !miss
}
