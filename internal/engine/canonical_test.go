package engine

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// retained reports whether the resident under fp retains l's own storage,
// so a serve of l verifies by identity and skips the segment hashes.
func retained(tab *Table, fp uint64, l *trace.Loop) bool {
	s := tab.Shard(fp)
	s.Lock()
	en, ok := s.Peek(fp)
	s.Unlock()
	if !ok {
		return false
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.res != nil && en.res.retains(l.Flat())
}

// weakRefs returns a weak pointer into l's subscript storage.
func weakRefs(l *trace.Loop) weak.Pointer[int32] {
	_, refs := l.Flat()
	return weak.Make(&refs[0])
}

// collected reports whether wp's target is gone after a few collections.
func collected(wp weak.Pointer[int32]) bool {
	for range 4 {
		runtime.GC()
		if wp.Value() == nil {
			return true
		}
	}
	return false
}

// serveByIdentity requires c's resident serve to retain c's storage and
// to answer want's bits.
func serveByIdentity(t *testing.T, e *Engine, fp uint64, c *trace.Loop, want []float64) {
	t.Helper()
	if !retained(e.Table(), fp, c) {
		t.Fatal("the resident does not retain the canonical loop's storage: every serve of it re-hashes")
	}
	res, ok := e.ServeResident(c, fp, 0)
	if !ok {
		t.Fatal("the canonical loop is not served from the resident")
	}
	if d := bitDiffs(res.Values, want); d > 0 {
		t.Fatalf("%d of %d elements off RunSequential's bits", d, len(want))
	}
}

// TestCanonicalTakeoverRebasesResident: a loop armed through its
// canonical copy, displaced by a colliding pattern and interned again,
// gets a new canonical copy. Installing it republishes the resident over
// the new copy's storage, so the serve verifies by identity, answers
// RunSequential's bits, and the first copy can be collected.
func TestCanonicalTakeoverRebasesResident(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	tab := e.Table()
	ls := workloads.HotKeySet(2, 0.5)
	l, other := ls[0], ls[1]
	fp := l.Fingerprint()
	want := l.RunSequential()

	first, _, hit := tab.Canonical(fp, l)
	if hit {
		t.Fatal("a first interning hit")
	}
	seedResident(t, e, first, want)
	if !retained(tab, fp, first) {
		t.Fatal("the resident armed through the canonical copy does not retain it")
	}
	firstRefs := weakRefs(first)
	first = nil

	// A colliding pattern under the same key takes the slot over; the
	// resident does not answer it and stays as it was.
	if _, _, hit := tab.Canonical(fp, other); hit {
		t.Fatal("the colliding pattern hit")
	}
	again, _, hit := tab.Canonical(fp, l)
	if hit {
		t.Fatal("re-interning after the takeover hit the displaced copy")
	}
	serveByIdentity(t, e, fp, again, want)
	if !collected(firstRefs) {
		t.Fatal("the first canonical copy is still reachable")
	}
}

// TestCanonicalAfterEvictionRebasesResident: once an interned entry is
// evicted, a worker's lookup re-creates the entry and arms it over the
// submitter's own loop, and only then is the pattern interned again. The
// install fills the loop-less entry, keeps its decision and republishes
// its resident over the new canonical copy.
func TestCanonicalAfterEvictionRebasesResident(t *testing.T) {
	e := mustNew(t, Config{Workers: 1, MaxCacheEntries: 1})
	defer e.Close()
	tab := e.Table()
	ls := workloads.HotKeySet(2, 0.5)
	l, other := ls[0], ls[1]
	fp := l.Fingerprint()
	want := l.RunSequential()

	first, id, _ := tab.Canonical(fp, l)
	seedResident(t, e, first, want)
	firstRefs := weakRefs(first)
	first = nil
	if _, err := submitDirect(e, other); err != nil {
		t.Fatal(err)
	}
	if tab.Lookup(fp, id) != nil {
		t.Fatal("the one-entry table kept the first pattern past another's lookup")
	}

	own := l.Clone()
	seedResident(t, e, own, want)
	if !retained(tab, fp, own) {
		t.Fatal("the re-created entry did not arm over the submitter's loop")
	}
	again, againID, hit := tab.Canonical(fp, l)
	if hit || againID <= id || !again.Sealed() || tab.Lookup(fp, againID) != again {
		t.Fatalf("interning into the loop-less entry: hit=%v id %d after %d, sealed=%v", hit, againID, id, again.Sealed())
	}
	serveByIdentity(t, e, fp, again, want)
	if res, err := submitDirect(e, again); err != nil || !res.CacheHit {
		t.Fatalf("the install dropped the entry's decision (hit=%v, err %v)", res.CacheHit, err)
	}
	if !collected(firstRefs) {
		t.Fatal("the evicted canonical copy is still reachable")
	}
}
