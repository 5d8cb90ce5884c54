package server

import (
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/trace"
)

// internTable maps decoded submissions onto canonical *trace.Loop objects.
// Fingerprints sample the trace, so the engine verifies a resubmission
// against the subscripts its resident total was computed from; for the
// canonical object those are the loop's own storage, and the comparison
// is an identity check (pattern.SameRefs). Without interning, every
// network submission would decode to a distinct object and every resident
// hit would compare its full reference stream. The table is a
// fingerprint-sharded clock.Sharded, the same structure as the engine's
// decision cache.
//
// Every canonical loop is a private deep copy, sealed (trace.Loop.Seal)
// before it is published, so the engine's resident serve skips its
// segment hashes and a gateway's pool client, re-fingerprinting it per
// leg, reads the memo. Nothing else in the server is sealed: not the
// decode scratch, nor a session's loop, which its deltas edit.
//
// The table is also the pattern-handle store: every installed loop gets an
// ID, the server hands (fingerprint, ID) back to the submitter, and a later
// SUBMIT_REF resolves through lookup — one map probe instead of a decode
// and a full pattern comparison.
type internTable struct {
	*clock.Sharded[*internEntry]
	// lastID issues handle IDs. They are table-wide and never reused, so a
	// handle that outlived its entry (evicted, displaced by a colliding
	// pattern, re-interned later) can only miss — never name another loop.
	lastID atomic.Uint64
}

// internEntry is guarded by its shard's mutex.
type internEntry struct {
	loop *trace.Loop
	id   uint64 // the handle issued for loop
}

// newInternTable builds shardCount shards (rounded up to a power of two)
// splitting maxLoops between them.
func newInternTable(shardCount, maxLoops int) *internTable {
	return &internTable{Sharded: clock.NewSharded[*internEntry](shardCount, maxLoops)}
}

// lookup resolves a pattern handle: the resident loop under fp when its
// entry still carries id, nil when the handle is gone. A hit marks the
// entry referenced exactly as canonical does, so traffic by reference
// keeps a hot pattern resident.
func (t *internTable) lookup(fp, id uint64) *trace.Loop {
	s := t.Shard(fp)
	s.Lock()
	defer s.Unlock()
	if e, ok := s.Peek(fp); ok && e.id == id {
		s.Get(fp)
		return e.loop
	}
	return nil
}

// canonical returns the canonical loop for l and its handle ID: the
// resident loop when one with the same fingerprint and pattern exists
// (hit=true), else a sealed deep copy of l installed as the new
// canonical object under a fresh ID. l itself is never retained or
// sealed, so callers may decode into reused scratch storage.
//
// The O(refs) pattern comparison runs outside the shard mutex (canonical
// loops are immutable once installed); the lock covers only the cache
// calls. Otherwise every connection submitting the same hot pattern —
// the Zipf regime the server exists for — would serialize its read loop
// behind one mutex doing a full trace walk.
func (t *internTable) canonical(fp uint64, l *trace.Loop) (canon *trace.Loop, id uint64, hit bool) {
	s := t.Shard(fp)
	s.Lock()
	var resident *trace.Loop
	if e, ok := s.Get(fp); ok {
		resident, id = e.loop, e.id
	}
	s.Unlock()

	if resident != nil && resident.EqualPattern(l) {
		return resident, id, true
	}
	clone := l.Clone()
	clone.Seal()
	id = t.lastID.Add(1)

	s.Lock()
	defer s.Unlock()
	if e, ok := s.Get(fp); ok {
		// Either the fingerprint collides between distinct patterns, or a
		// racing submission installed an entry since the unlocked check.
		// In the race case share the winner when it matches; in the
		// collision case take over the slot — the displaced pattern loses
		// sharing, not correctness (in-flight jobs keep their pointer).
		if e.loop != resident && e.loop.EqualPattern(l) {
			return e.loop, e.id, true
		}
		e.loop, e.id = clone, id
		return clone, id, false
	}
	// A loop just shipped in full starts with its second chance: Put
	// (which at capacity evicts one victim), then mark.
	s.Put(fp, &internEntry{loop: clone, id: id})
	s.Get(fp)
	return clone, id, false
}
