package engine

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// decisionResident reports whether fp is resident without marking it.
func decisionResident(c *Table, fp uint64) bool {
	_, ok := c.Shard(fp).Peek(fp)
	return ok
}

// TestDecisionCacheVictimOrderGolden replays a fixed 2000-lookup reference
// string (64 fingerprints, half the traffic on a hot eighth, over 4 shards
// of 6) and compares every hit/miss answer and every victim with
// testdata/decision_victims.golden. The golden was recorded at PR 18
// (cda3942) by this same loop over the hand-rolled cacheShard ring, so it
// pins that moving eviction into internal/clock changed no victim. There
// is deliberately no -update path: the file is the old implementation's
// behaviour, not this one's.
func TestDecisionCacheVictimOrderGolden(t *testing.T) {
	const universe = 64
	c := NewTable(4, 24)
	rng := rand.New(rand.NewSource(19))
	var b strings.Builder
	for op := 0; op < 2000; op++ {
		fp := uint64(rng.Intn(universe))
		if rng.Intn(2) == 0 {
			fp = uint64(rng.Intn(universe / 8))
		}
		var before [universe]bool
		for k := range before {
			before[k] = decisionResident(c, uint64(k))
		}
		_, hit := c.get(fp)
		victim := "-"
		for k, was := range before {
			if was && !decisionResident(c, uint64(k)) {
				victim = fmt.Sprint(k)
			}
		}
		fmt.Fprintf(&b, "%d %t %s\n", fp, hit, victim)
	}
	fmt.Fprintf(&b, "entries %d evictions %d\n", c.Len(), c.Evictions())

	want, err := os.ReadFile("testdata/decision_victims.golden")
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
