package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// internTable maps decoded submissions onto canonical *trace.Loop objects.
// The engine's batch fusion requires pointer-identical loops (fingerprints
// sample the trace, so equality of fingerprints alone is not enough to
// share an execution); without interning, every network submission would
// decode to a distinct object and coalescing would never engage across
// the wire. The table is sharded by fingerprint low bits with per-shard
// CLOCK eviction, the same structure as the engine's decision cache.
//
// The table is also the pattern-handle store: every installed loop gets an
// ID, the server hands (fingerprint, ID) back to the submitter, and a later
// SUBMIT_REF resolves through lookup — one map probe instead of a decode
// and a full pattern comparison.
type internTable struct {
	shards []internShard
	mask   uint64
	// lastID issues handle IDs. They are table-wide and never reused, so a
	// handle that outlived its entry (evicted, displaced by a colliding
	// pattern, re-interned later) can only miss — never name another loop.
	lastID atomic.Uint64
}

type internEntry struct {
	loop *trace.Loop
	id   uint64 // the handle issued for loop
	ref  bool   // CLOCK referenced bit, guarded by the shard mutex
}

type internShard struct {
	mu      sync.Mutex
	entries map[uint64]*internEntry
	ring    []uint64
	hand    int
	cap     int
}

// newInternTable builds shardCount shards (rounded up to a power of two)
// splitting maxLoops between them.
func newInternTable(shardCount, maxLoops int) *internTable {
	n := 1
	for n < shardCount {
		n <<= 1
	}
	perShard := (maxLoops + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	t := &internTable{shards: make([]internShard, n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].entries = make(map[uint64]*internEntry)
		t.shards[i].ring = make([]uint64, 0, perShard)
		t.shards[i].cap = perShard
	}
	return t
}

// lookup resolves a pattern handle: the resident loop under fp when its
// entry still carries id, nil when the handle is gone. A hit marks the
// entry referenced exactly as canonical does, so traffic by reference
// keeps a hot pattern resident.
func (t *internTable) lookup(fp, id uint64) *trace.Loop {
	s := &t.shards[fp&t.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[fp]; ok && e.id == id {
		e.ref = true
		return e.loop
	}
	return nil
}

// canonical returns the canonical loop for l and its handle ID: the
// resident loop when one with the same fingerprint and pattern exists
// (hit=true), else a deep copy of l installed as the new canonical object
// under a fresh ID. l itself is never retained, so callers may decode
// into reused scratch storage.
//
// The O(refs) pattern comparison runs outside the shard mutex (canonical
// loops are immutable once installed); the lock covers only map and ring
// surgery. Otherwise every connection submitting the same hot pattern —
// the Zipf regime the server exists for — would serialize its read loop
// behind one mutex doing a full trace walk.
func (t *internTable) canonical(fp uint64, l *trace.Loop) (canon *trace.Loop, id uint64, hit bool) {
	s := &t.shards[fp&t.mask]
	s.mu.Lock()
	var resident *trace.Loop
	if e, ok := s.entries[fp]; ok {
		e.ref = true
		resident, id = e.loop, e.id
	}
	s.mu.Unlock()

	if resident != nil && resident.EqualPattern(l) {
		return resident, id, true
	}
	clone := l.Clone()
	id = t.lastID.Add(1)

	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[fp]; ok {
		// Either the fingerprint collides between distinct patterns, or a
		// racing submission installed an entry since the unlocked check.
		// In the race case share the winner when it matches; in the
		// collision case take over the slot — the displaced pattern loses
		// sharing, not correctness (in-flight batches keep their pointer).
		if e.loop != resident && e.loop.EqualPattern(l) {
			e.ref = true
			return e.loop, e.id, true
		}
		e.loop, e.id = clone, id
		e.ref = true
		return clone, id, false
	}
	e := &internEntry{loop: clone, id: id, ref: true}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, fp)
	} else {
		// CLOCK sweep: clear referenced bits until an unreferenced victim
		// turns up; terminates within two revolutions.
		for {
			victim := s.entries[s.ring[s.hand]]
			if victim.ref {
				victim.ref = false
				s.hand = (s.hand + 1) % len(s.ring)
				continue
			}
			delete(s.entries, s.ring[s.hand])
			s.ring[s.hand] = fp
			s.hand = (s.hand + 1) % len(s.ring)
			break
		}
	}
	s.entries[fp] = e
	return clone, id, false
}

// len returns the resident canonical-loop count.
func (t *internTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
