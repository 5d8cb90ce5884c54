package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// fig3Loops are the paper's Figure 3 rows at their Fig. 3 scales: 0.15,
// or 0.4 where the row's SP is under 1 %, so its sparse touched set keeps
// a usable size. Rows share loop names (four Irreg/DO100 inputs), so each
// is named after its row's seed as well.
func fig3Loops() []*trace.Loop {
	var loops []*trace.Loop
	for _, r := range workloads.Fig3Rows() {
		scale := 0.15
		if r.Spec.SPPercent < 1 {
			scale = 0.4
		}
		l := r.Generate(scale)
		l.Name = fmt.Sprintf("%s#%d", l.Name, r.Spec.Seed)
		loops = append(loops, l)
	}
	return loops
}

// pclrLoops are the PCLR applications of Table 2 at scale 0.25.
func pclrLoops() []*trace.Loop {
	var loops []*trace.Loop
	for _, a := range workloads.PCLRApps() {
		loops = append(loops, a.Generate(0.25))
	}
	return loops
}

// servedPopulations are the loop populations the served-set test runs,
// each of distinct fingerprints, so every loop is decided at its own
// first sight: Figure 3, PCLR, the standing mixed and Zipf sets, and both
// regimes of a drift stream (whose phases share fingerprints, so each
// regime is its own population).
func servedPopulations() map[string][]*trace.Loop {
	ds := workloads.NewDriftStream(4, 2, 1, 1.4, 0.25, 1)
	return map[string][]*trace.Loop{
		"fig3":          fig3Loops(),
		"pclr-0.25":     pclrLoops(),
		"mixed-0.25":    workloads.MixedSet(0.25),
		"hotkey-16-0.5": workloads.HotKeySet(16, 0.5),
		"drift-sparse":  ds.Phases[0],
		"drift-dense":   ds.Phases[1],
	}
}

// TestServedSetExcludesLW runs every population at 2, 4 and 8
// processors. No decision is lw: a loop the tree sends to lw is served by
// ll, with the tree's verdict in Why; every other loop runs the tree's
// pick with the tree's rationale. Every answer is RunSequential's bits,
// and Why stays under the client's 256-byte intern bound.
func TestServedSetExcludesLW(t *testing.T) {
	pops := servedPopulations()
	names := make([]string, 0, len(pops))
	for name := range pops {
		names = append(names, name)
	}
	sort.Strings(names)
	treeLW := 0
	for _, procs := range []int{2, 4, 8} {
		for _, pop := range names {
			e := mustNew(t, Config{Workers: 1, Platform: core.DefaultPlatform(procs)})
			for _, l := range pops[pop] {
				tree := adapt.Recommend(e.characterize(l))
				res, err := e.Submit(l)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("procs=%d %s/%s", procs, pop, l.Name)
				if res.CacheHit {
					t.Fatalf("%s: not a first sight; the population repeats a fingerprint", where)
				}
				switch {
				case res.Scheme == "lw":
					t.Errorf("%s: served by lw (%s)", where, res.Why)
				case tree.Scheme == "lw":
					treeLW++
					if res.Scheme != "ll" || !strings.Contains(res.Why, "lw") || !strings.Contains(res.Why, tree.Why) {
						t.Errorf("%s: tree picks lw (%s), served %s (%s); want ll with the tree's verdict", where, tree.Why, res.Scheme, res.Why)
					}
				case res.Scheme != tree.Scheme || res.Why != tree.Why:
					t.Errorf("%s: served %s (%s), want the tree's %s (%s)", where, res.Scheme, res.Why, tree.Scheme, tree.Why)
				}
				if len(res.Why) >= 256 {
					t.Errorf("%s: Why is %d bytes, past the client's intern bound", where, len(res.Why))
				}
				if d := bitDiffs(res.Values, l.RunSequential()); d > 0 {
					t.Errorf("%s: %d of %d elements differ from RunSequential", where, d, l.NumElems)
				}
			}
			if n := e.Stats().Schemes["lw"]; n != 0 {
				t.Errorf("procs=%d %s: %d jobs counted under lw", procs, pop, n)
			}
			e.Close()
		}
	}
	if treeLW == 0 {
		t.Fatal("no loop reached the tree's lw branch, so the mapping went untested")
	}
}
