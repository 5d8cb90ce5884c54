package server

import (
	"testing"
	"time"

	"repro/internal/engine"
)

// mkStoreSession builds a store entry around an empty engine session
// (Close on it is a no-op), sized for byte-account assertions.
func mkStoreSession(key sessKey, bytes int64) *serverSession {
	return &serverSession{key: key, es: &engine.Session{}, bytes: bytes}
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
		st.install(mkStoreSession(sessKey{conn: 1, sid: uint64(i)}, sz))
	}
	if residency, evictions := st.len(), st.evictions.Load(); residency != n || evictions != 0 {
		t.Fatalf("residency %d evictions %d after %d installs, want %d and 0", residency, evictions, n, n)
	}
	past := time.Now().Add(-time.Second).UnixNano()
	st.mu.Lock()
	for _, ss := range st.c.All() {
		ss.lastUsed = past
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
