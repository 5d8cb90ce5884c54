package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// goldenPicks is the scheme and rationale the engine returned for every
// loop of the three standing populations at DefaultPlatform(4) and (8),
// recorded before the host descriptor (core.Platform) was separated from
// the simulated machine. The rationale prints CHR, DIM, SP and MO, so a
// plumbing slip that hands the inspector a different L2Bytes or processor
// count moves a string here even when the scheme survives it.
var goldenPicks = []struct {
	procs             int
	set, loop         string
	scheme, rationale string
}{
	{4, "mixed-0.25", "dense-small", "rep", "high contention (CHR=1.80) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{4, "mixed-0.25", "dense-hot", "rep", "high contention (CHR=1.60) and cache-scaled array (DIM=0.01): replicated arrays amortize their sweeps"},
	{4, "mixed-0.25", "sparse-hash", "hash", "very sparse (SP=0.20% < 0.50%) with high mobility (MO=9.2): private hash tables shrink the processed space"},
	{4, "mixed-0.25", "clustered", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.06): replicated arrays amortize their sweeps"},
	{4, "mixed-0.25", "large-exclusive", "ll", "small array (DIM=0.23) densely touched (SP=12.1%): lazy buffers win despite low CHR"},
	{4, "mixed-0.25", "moderate", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.04): replicated arrays amortize their sweeps"},
	{4, "mixed-0.5", "dense-small", "rep", "high contention (CHR=1.80) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{4, "mixed-0.5", "dense-hot", "rep", "high contention (CHR=1.60) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{4, "mixed-0.5", "sparse-hash", "hash", "very sparse (SP=0.20% < 0.50%) with high mobility (MO=9.6): private hash tables shrink the processed space"},
	{4, "mixed-0.5", "clustered", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.12): replicated arrays amortize their sweeps"},
	{4, "mixed-0.5", "large-exclusive", "ll", "small array (DIM=0.46) densely touched (SP=11.8%): lazy buffers win despite low CHR"},
	{4, "mixed-0.5", "moderate", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.08): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-00", "rep", "high contention (CHR=1.80) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-01", "rep", "high contention (CHR=1.60) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-02", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.12): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-03", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.08): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-04", "rep", "high contention (CHR=1.80) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-05", "rep", "high contention (CHR=1.60) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-06", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.12): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-07", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.08): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-08", "rep", "high contention (CHR=1.80) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-09", "rep", "high contention (CHR=1.60) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-10", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.12): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-11", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.08): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-12", "rep", "high contention (CHR=1.80) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-13", "rep", "high contention (CHR=1.60) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-14", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.12): replicated arrays amortize their sweeps"},
	{4, "hotkey-16-0.5", "hotkey-15", "rep", "high contention (CHR=0.60) and cache-scaled array (DIM=0.08): replicated arrays amortize their sweeps"},
	{8, "mixed-0.25", "dense-small", "rep", "high contention (CHR=0.90) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{8, "mixed-0.25", "dense-hot", "rep", "high contention (CHR=0.80) and cache-scaled array (DIM=0.01): replicated arrays amortize their sweeps"},
	{8, "mixed-0.25", "sparse-hash", "hash", "very sparse (SP=0.20% < 0.50%) with high mobility (MO=9.2): private hash tables shrink the processed space"},
	{8, "mixed-0.25", "clustered", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "mixed-0.25", "large-exclusive", "ll", "small array (DIM=0.23) densely touched (SP=12.1%): lazy buffers win despite low CHR"},
	{8, "mixed-0.25", "moderate", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "mixed-0.5", "dense-small", "rep", "high contention (CHR=0.90) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{8, "mixed-0.5", "dense-hot", "rep", "high contention (CHR=0.80) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{8, "mixed-0.5", "sparse-hash", "hash", "very sparse (SP=0.20% < 0.50%) with high mobility (MO=9.6): private hash tables shrink the processed space"},
	{8, "mixed-0.5", "clustered", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "mixed-0.5", "large-exclusive", "ll", "small array (DIM=0.46) densely touched (SP=11.8%): lazy buffers win despite low CHR"},
	{8, "mixed-0.5", "moderate", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "hotkey-16-0.5", "hotkey-00", "rep", "high contention (CHR=0.90) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{8, "hotkey-16-0.5", "hotkey-01", "rep", "high contention (CHR=0.80) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{8, "hotkey-16-0.5", "hotkey-02", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "hotkey-16-0.5", "hotkey-03", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "hotkey-16-0.5", "hotkey-04", "rep", "high contention (CHR=0.90) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{8, "hotkey-16-0.5", "hotkey-05", "rep", "high contention (CHR=0.80) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{8, "hotkey-16-0.5", "hotkey-06", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "hotkey-16-0.5", "hotkey-07", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "hotkey-16-0.5", "hotkey-08", "rep", "high contention (CHR=0.90) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{8, "hotkey-16-0.5", "hotkey-09", "rep", "high contention (CHR=0.80) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{8, "hotkey-16-0.5", "hotkey-10", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "hotkey-16-0.5", "hotkey-11", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "hotkey-16-0.5", "hotkey-12", "rep", "high contention (CHR=0.90) and cache-scaled array (DIM=0.03): replicated arrays amortize their sweeps"},
	{8, "hotkey-16-0.5", "hotkey-13", "rep", "high contention (CHR=0.80) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{8, "hotkey-16-0.5", "hotkey-14", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{8, "hotkey-16-0.5", "hotkey-15", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
}

// TestPicksMatchGolden submits every golden loop cold and compares the
// decision the engine reports.
func TestPicksMatchGolden(t *testing.T) {
	sets := map[string][]*trace.Loop{
		"mixed-0.25":    workloads.MixedSet(0.25),
		"mixed-0.5":     workloads.MixedSet(0.5),
		"hotkey-16-0.5": workloads.HotKeySet(16, 0.5),
	}
	loops := make(map[string]*trace.Loop)
	for set, ls := range sets {
		for _, l := range ls {
			loops[set+"/"+l.Name] = l
		}
	}
	engines := make(map[int]*Engine)
	for _, g := range goldenPicks {
		e := engines[g.procs]
		if e == nil {
			e = mustNew(t, Config{Workers: 1, Platform: core.DefaultPlatform(g.procs)})
			defer e.Close()
			engines[g.procs] = e
		}
		l := loops[g.set+"/"+g.loop]
		if l == nil {
			t.Fatalf("golden row names %s/%s, which the workload no longer generates", g.set, g.loop)
		}
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheme != g.scheme || res.Why != g.rationale {
			t.Errorf("procs=%d %s/%s:\n got  %s — %s\n want %s — %s",
				g.procs, g.set, g.loop, res.Scheme, res.Why, g.scheme, g.rationale)
		}
	}
	if want := 2 * len(loops); len(goldenPicks) != want {
		t.Errorf("golden table has %d rows, the populations have %d loops x 2 platforms", len(goldenPicks), len(loops))
	}
}
