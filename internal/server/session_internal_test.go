package server

import (
	"testing"
	"time"

	"repro/internal/engine"
)

// mkStoreSession builds a store entry around an empty engine session
// (Close on it is a no-op), sized for byte-account assertions.
func mkStoreSession(key sessKey, bytes int64) *serverSession {
	ss := &serverSession{key: key, es: &engine.Session{}, bytes: bytes}
	ss.lastUsed.Store(time.Now().UnixNano())
	return ss
}

// TestExpireMassSweepKeepsByteAccount pins the mass-expiry sweep against
// the in-place ring compaction: expiring every resident session at once
// crosses the compaction threshold mid-sweep, and a sweep that kept
// ranging over the rewritten backing array would remove sessions twice,
// driving the byte account negative and over-admitting ever after.
func TestExpireMassSweepKeepsByteAccount(t *testing.T) {
	const n, sz = 32, int64(100)
	st := newSessionStore(2*n, 50*time.Millisecond, n*sz+1)
	for i := 0; i < n; i++ {
		if err := st.reserve(sz); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		if !st.commit(mkStoreSession(sessKey{conn: 1, sid: uint64(i)}, sz), sz) {
			t.Fatalf("commit %d failed", i)
		}
	}
	past := time.Now().Add(-time.Second).UnixNano()
	st.mu.Lock()
	for _, ss := range st.c.All() {
		ss.lastUsed.Store(past)
	}
	st.expireLocked(time.Now().UnixNano())
	residency, bytes := st.c.Len(), st.bytes
	st.mu.Unlock()
	if residency != 0 {
		t.Fatalf("residency %d after mass expiry, want 0", residency)
	}
	if bytes != 0 {
		t.Fatalf("byte account %d after mass expiry, want 0", bytes)
	}
	if got := st.evictions.Load(); got != n {
		t.Fatalf("evictions %d, want %d", got, n)
	}
}

// TestCommitDuplicateKeyFails pins atomic install-time uniqueness: two
// pipelined opens with the same sid both pass the read loop's lookup, so
// the second commit must fail (releasing its reservation) instead of
// overwriting the winner — and a later removal of the loser must not
// tear down the winner's map entry.
func TestCommitDuplicateKeyFails(t *testing.T) {
	st := newSessionStore(4, time.Minute, 1<<20)
	key := sessKey{conn: 1, sid: 7}
	first := mkStoreSession(key, 100)
	if err := st.reserve(100); err != nil {
		t.Fatal(err)
	}
	if !st.commit(first, 100) {
		t.Fatal("first commit failed")
	}
	if err := st.reserve(100); err != nil {
		t.Fatal(err)
	}
	dup := mkStoreSession(key, 100)
	if st.commit(dup, 100) {
		t.Fatal("duplicate commit succeeded")
	}
	st.mu.Lock()
	winner, _ := st.c.Peek(key)
	bytes, reserved := st.bytes, st.reserved
	st.mu.Unlock()
	if winner != first {
		t.Fatal("duplicate commit displaced the first session")
	}
	if bytes != 100 {
		t.Fatalf("byte account %d after failed commit, want 100", bytes)
	}
	if reserved != 0 {
		t.Fatalf("reserved %d after failed commit, want 0", reserved)
	}
	if got := st.opens.Load(); got != 1 {
		t.Fatalf("opens %d, want 1", got)
	}
	// The loser never installed; removing it (as an eviction pass over a
	// stale pointer would) must leave the winner resident.
	st.mu.Lock()
	st.removeLocked(dup)
	winner, _ = st.c.Peek(key)
	stillThere := winner == first
	bytes = st.bytes
	st.mu.Unlock()
	if !stillThere {
		t.Fatal("removing the uninstalled loser tore down the winner")
	}
	if bytes != 100 {
		t.Fatalf("byte account %d after loser removal, want 100", bytes)
	}
}

// TestReserveBesideReservationsEvictsNobody pins the admission pre-check
// against in-flight reservations: their bytes are not evictable, so an
// open that cannot fit beside them is refused without touching the
// resident sessions, and fits once the reservation is gone.
func TestReserveBesideReservationsEvictsNobody(t *testing.T) {
	st := newSessionStore(4, time.Minute, 300)
	if err := st.reserve(100); err != nil {
		t.Fatal(err)
	}
	if !st.commit(mkStoreSession(sessKey{conn: 1, sid: 1}, 100), 100) {
		t.Fatal("commit failed")
	}
	if err := st.reserve(150); err != nil {
		t.Fatal(err)
	}
	if err := st.reserve(200); err != errSessionBudget {
		t.Fatalf("reserve beside a 150-byte reservation: %v, want errSessionBudget", err)
	}
	if st.len() != 1 || st.evictions.Load() != 0 {
		t.Fatalf("residency %d evictions %d after the refusal, want 1 and 0", st.len(), st.evictions.Load())
	}
	st.abort(150)
	if err := st.reserve(200); err != nil {
		t.Fatalf("reserve after the abort: %v", err)
	}
	if st.len() != 1 || st.evictions.Load() != 0 {
		t.Fatalf("residency %d evictions %d, want 1 and 0: 100 resident + 200 fits 300", st.len(), st.evictions.Load())
	}
}
