package server

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// internResident reports whether fp is resident without marking it.
func internResident(t *engine.Table, fp uint64) bool {
	_, ok := t.Shard(fp).Peek(fp)
	return ok
}

// TestInternVictimOrderGolden replays a fixed 2000-op reference string
// against a 4-shard, 24-entry engine table — full submissions
// (Canonical), submissions by handle (Lookup, with the last ID the key
// was issued, so some are stale) and a sprinkle of colliding patterns
// under a resident fingerprint — and compares every answer, every issued
// ID and every victim with testdata/intern_victims.golden. The golden was
// recorded at PR 18 (cda3942) by this same loop over the hand-rolled
// internShard ring, and the server's own intern table replayed it until
// interning moved into the engine's table; there is deliberately no
// -update path.
func TestInternVictimOrderGolden(t *testing.T) {
	const universe = 64
	mk := func(k, variant int) *trace.Loop {
		l := trace.NewLoop("golden", universe)
		l.AddIter(int32(k), int32(variant))
		return l
	}
	tab := engine.NewTable(4, 24)
	rng := rand.New(rand.NewSource(23))
	var lastID [universe]uint64
	var b strings.Builder
	for op := 0; op < 2000; op++ {
		k := rng.Intn(universe)
		if rng.Intn(2) == 0 {
			k = rng.Intn(universe / 8)
		}
		fp := uint64(k)
		var before [universe]bool
		for j := range before {
			before[j] = internResident(tab, uint64(j))
		}
		switch r := rng.Intn(20); {
		case r < 6:
			got, _ := tab.Lookup(fp, lastID[k])
			found := got != nil
			fmt.Fprintf(&b, "ref %d %d %t", k, lastID[k], found)
		default:
			variant := 0
			if r == 19 {
				variant = 1 + rng.Intn(2) // same fingerprint, different pattern
			}
			_, id, hit, _ := tab.Canonical(fp, mk(k, variant))
			lastID[k] = id
			fmt.Fprintf(&b, "put %d/%d %d %t", k, variant, id, hit)
		}
		victim := "-"
		for j, was := range before {
			if was && !internResident(tab, uint64(j)) {
				victim = fmt.Sprint(j)
			}
		}
		fmt.Fprintf(&b, " %s\n", victim)
	}
	fmt.Fprintf(&b, "resident %d\n", tab.Len())

	want, err := os.ReadFile("testdata/intern_victims.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("victim order diverged from the parent's ring at line %d: got %q", i+1, gl[i])
			}
		}
		t.Fatal("output shorter than the golden")
	}
}
