package engine

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// goldenPicks is the scheme the engine served and the decision tree's
// rationale for every loop of the three standing populations at
// DefaultPlatform(4) and (8), recorded before the host descriptor
// (core.Platform) was separated from the simulated machine, and for the
// Figure 3 and PCLR loops (fig3Loops, pclrLoops), recorded before lw
// left the serving set; since then the four rows the tree sends to lw
// read ll in the scheme column, and their Why is servedByLL of the
// rationale. The rationale prints CHR, DIM, SP and MO, so a plumbing slip
// that hands the inspector a different L2Bytes or processor count moves
// a string here even when the scheme survives it.
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
	{4, "fig3", "Irreg/DO100#101", "rep", "high contention (CHR=1.84) and cache-scaled array (DIM=0.23): replicated arrays amortize their sweeps"},
	{4, "fig3", "Irreg/DO100#102", "rep", "high contention (CHR=1.42) and cache-scaled array (DIM=1.14): replicated arrays amortize their sweeps"},
	{4, "fig3", "Irreg/DO100#103", "ll", "high contention (CHR=0.80) but large array (DIM=2.29): owner-computes avoids private copies"},
	{4, "fig3", "Irreg/DO100#104", "ll", "high contention (CHR=0.52) but large array (DIM=12.21): owner-computes avoids private copies"},
	{4, "fig3", "Nbf/DO50#201", "rep", "high contention (CHR=0.50) and cache-scaled array (DIM=0.06): replicated arrays amortize their sweeps"},
	{4, "fig3", "Nbf/DO50#202", "rep", "high contention (CHR=0.50) and cache-scaled array (DIM=0.29): replicated arrays amortize their sweeps"},
	{4, "fig3", "Nbf/DO50#203", "rep", "high contention (CHR=0.50) and cache-scaled array (DIM=1.56): replicated arrays amortize their sweeps"},
	{4, "fig3", "Nbf/DO50#204", "ll", "high contention (CHR=0.50) but large array (DIM=7.81): owner-computes avoids private copies"},
	{4, "fig3", "Moldyn/ComputeForces#301", "rep", "high contention (CHR=0.82) and cache-scaled array (DIM=0.04): replicated arrays amortize their sweeps"},
	{4, "fig3", "Moldyn/ComputeForces#302", "rep", "high contention (CHR=0.72) and cache-scaled array (DIM=0.10): replicated arrays amortize their sweeps"},
	{4, "fig3", "Moldyn/ComputeForces#303", "rep", "high contention (CHR=0.66) and cache-scaled array (DIM=0.16): replicated arrays amortize their sweeps"},
	{4, "fig3", "Moldyn/ComputeForces#304", "rep", "high contention (CHR=0.58) and cache-scaled array (DIM=0.54): replicated arrays amortize their sweeps"},
	{4, "fig3", "Spark98/smvpthread#401", "rep", "high contention (CHR=0.36) and cache-scaled array (DIM=0.18): replicated arrays amortize their sweeps"},
	{4, "fig3", "Spark98/smvpthread#402", "rep", "high contention (CHR=0.40) and cache-scaled array (DIM=0.04): replicated arrays amortize their sweeps"},
	{4, "fig3", "Charmm/DO78#501", "ll", "moderate contention (CHR=0.28): lazy replicated buffers skip the full-array sweeps"},
	{4, "fig3", "Charmm/DO78#502", "ll", "moderate contention (CHR=0.30): lazy replicated buffers skip the full-array sweeps"},
	{4, "fig3", "Charmm/DO78#503", "sel", "low contention (CHR=0.26) over a large/sparse array (DIM=1.52, SP=1.12%): privatize only conflicting elements"},
	{4, "fig3", "Spice/bjt100#601", "hash", "very sparse (SP=0.14% < 0.50%) with high mobility (MO=21.4): private hash tables shrink the processed space"},
	{4, "fig3", "Spice/bjt100#602", "hash", "very sparse (SP=0.20% < 0.50%) with high mobility (MO=20.4): private hash tables shrink the processed space"},
	{4, "fig3", "Spice/bjt100#603", "hash", "very sparse (SP=0.16% < 0.50%) with high mobility (MO=19.0): private hash tables shrink the processed space"},
	{4, "fig3", "Spice/bjt100#604", "hash", "very sparse (SP=0.16% < 0.50%) with high mobility (MO=13.7): private hash tables shrink the processed space"},
	{4, "pclr-0.25", "Euler/dflux_do100", "rep", "high contention (CHR=2.38) and cache-scaled array (DIM=0.34): replicated arrays amortize their sweeps"},
	{4, "pclr-0.25", "Equake/smvp", "rep", "high contention (CHR=1.83) and cache-scaled array (DIM=0.35): replicated arrays amortize their sweeps"},
	{4, "pclr-0.25", "Vml/VecMult_CAB", "rep", "high contention (CHR=1.44) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{4, "pclr-0.25", "Charmm/dynamc_do", "rep", "high contention (CHR=4.49) and cache-scaled array (DIM=0.95): replicated arrays amortize their sweeps"},
	{4, "pclr-0.25", "Nbf/nbf_do50", "rep", "high contention (CHR=50.00) and cache-scaled array (DIM=0.49): replicated arrays amortize their sweeps"},
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
	{8, "fig3", "Irreg/DO100#101", "rep", "high contention (CHR=0.92) and cache-scaled array (DIM=0.23): replicated arrays amortize their sweeps"},
	{8, "fig3", "Irreg/DO100#102", "rep", "high contention (CHR=0.71) and cache-scaled array (DIM=1.14): replicated arrays amortize their sweeps"},
	{8, "fig3", "Irreg/DO100#103", "ll", "high contention (CHR=0.40) but large array (DIM=2.29): owner-computes avoids private copies"},
	{8, "fig3", "Irreg/DO100#104", "sel", "low contention (CHR=0.26) over a large/sparse array (DIM=12.21, SP=0.25%): privatize only conflicting elements"},
	{8, "fig3", "Nbf/DO50#201", "ll", "small array (DIM=0.06) densely touched (SP=23.9%): lazy buffers win despite low CHR"},
	{8, "fig3", "Nbf/DO50#202", "ll", "small array (DIM=0.29) densely touched (SP=6.2%): lazy buffers win despite low CHR"},
	{8, "fig3", "Nbf/DO50#203", "sel", "low contention (CHR=0.25) over a large/sparse array (DIM=1.56, SP=0.62%): privatize only conflicting elements"},
	{8, "fig3", "Nbf/DO50#204", "sel", "low contention (CHR=0.25) over a large/sparse array (DIM=7.81, SP=0.25%): privatize only conflicting elements"},
	{8, "fig3", "Moldyn/ComputeForces#301", "rep", "high contention (CHR=0.41) and cache-scaled array (DIM=0.04): replicated arrays amortize their sweeps"},
	{8, "fig3", "Moldyn/ComputeForces#302", "rep", "high contention (CHR=0.36) and cache-scaled array (DIM=0.10): replicated arrays amortize their sweeps"},
	{8, "fig3", "Moldyn/ComputeForces#303", "ll", "moderate contention (CHR=0.33): lazy replicated buffers skip the full-array sweeps"},
	{8, "fig3", "Moldyn/ComputeForces#304", "ll", "moderate contention (CHR=0.29): lazy replicated buffers skip the full-array sweeps"},
	{8, "fig3", "Spark98/smvpthread#401", "sel", "low contention (CHR=0.18) over a large/sparse array (DIM=0.18, SP=0.62%): privatize only conflicting elements"},
	{8, "fig3", "Spark98/smvpthread#402", "sel", "low contention (CHR=0.20) over a large/sparse array (DIM=0.04, SP=0.58%): privatize only conflicting elements"},
	{8, "fig3", "Charmm/DO78#501", "sel", "low contention (CHR=0.14) over a large/sparse array (DIM=0.76, SP=16.66%): privatize only conflicting elements"},
	{8, "fig3", "Charmm/DO78#502", "sel", "low contention (CHR=0.15) over a large/sparse array (DIM=0.76, SP=11.53%): privatize only conflicting elements"},
	{8, "fig3", "Charmm/DO78#503", "sel", "low contention (CHR=0.13) over a large/sparse array (DIM=1.52, SP=1.12%): privatize only conflicting elements"},
	{8, "fig3", "Spice/bjt100#601", "hash", "very sparse (SP=0.14% < 0.50%) with high mobility (MO=21.4): private hash tables shrink the processed space"},
	{8, "fig3", "Spice/bjt100#602", "hash", "very sparse (SP=0.20% < 0.50%) with high mobility (MO=20.4): private hash tables shrink the processed space"},
	{8, "fig3", "Spice/bjt100#603", "hash", "very sparse (SP=0.16% < 0.50%) with high mobility (MO=19.0): private hash tables shrink the processed space"},
	{8, "fig3", "Spice/bjt100#604", "hash", "very sparse (SP=0.16% < 0.50%) with high mobility (MO=13.7): private hash tables shrink the processed space"},
	{8, "pclr-0.25", "Euler/dflux_do100", "rep", "high contention (CHR=1.19) and cache-scaled array (DIM=0.34): replicated arrays amortize their sweeps"},
	{8, "pclr-0.25", "Equake/smvp", "rep", "high contention (CHR=0.92) and cache-scaled array (DIM=0.35): replicated arrays amortize their sweeps"},
	{8, "pclr-0.25", "Vml/VecMult_CAB", "rep", "high contention (CHR=0.72) and cache-scaled array (DIM=0.02): replicated arrays amortize their sweeps"},
	{8, "pclr-0.25", "Charmm/dynamc_do", "rep", "high contention (CHR=2.25) and cache-scaled array (DIM=0.95): replicated arrays amortize their sweeps"},
	{8, "pclr-0.25", "Nbf/nbf_do50", "rep", "high contention (CHR=25.00) and cache-scaled array (DIM=0.49): replicated arrays amortize their sweeps"},
}

// TestPicksMatchGolden submits every golden loop cold and compares the
// decision the engine reports.
func TestPicksMatchGolden(t *testing.T) {
	sets := map[string][]*trace.Loop{
		"mixed-0.25":    workloads.MixedSet(0.25),
		"mixed-0.5":     workloads.MixedSet(0.5),
		"hotkey-16-0.5": workloads.HotKeySet(16, 0.5),
		"fig3":          fig3Loops(),
		"pclr-0.25":     pclrLoops(),
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
		tree := adapt.Recommend(e.characterize(l))
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		why := g.rationale
		if tree.Scheme != g.scheme {
			why = servedByLL(g.rationale)
		}
		if tree.Why != g.rationale || res.Scheme != g.scheme || res.Why != why {
			t.Errorf("procs=%d %s/%s:\n got  %s — %s (tree: %s — %s)\n want %s — %s",
				g.procs, g.set, g.loop, res.Scheme, res.Why, tree.Scheme, tree.Why, g.scheme, why)
		}
	}
	if want := 2 * len(loops); len(goldenPicks) != want {
		t.Errorf("golden table has %d rows, the populations have %d loops x 2 platforms", len(goldenPicks), len(loops))
	}
}
