package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/spec"
	"repro/internal/stats"
)

// RLRPDResult reproduces the Section 3 claim: the Recursive LRPD test
// extracts speedup from partially parallel loops (the paper applied it to
// the three most important loops of TRACK, "considered sequential" before
// the technique) where the plain LRPD test fails outright.
type RLRPDResult struct {
	DepFraction     float64
	Iters           int
	Procs           int
	PlainLRPDPassed bool
	Passes          int
	Replication     float64 // executed iterations / loop iterations
	Speedup         float64 // critical-path speedup estimate
}

// trackLikeLoop builds a partially parallel loop: every iteration updates
// its own element; a depFraction of iterations additionally read an
// element written by a recent earlier iteration (position-dependent
// interactions, as in TRACK's tracking loops).
func trackLikeLoop(iters int, depFraction float64, seed int64) *spec.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := spec.NewLoop(iters + 1)
	for i := 0; i < iters; i++ {
		accs := []spec.Access{
			{Elem: int32(i), Kind: spec.Read},
			{Elem: int32(i), Kind: spec.Write},
		}
		if i > 0 && rng.Float64() < depFraction {
			back := 1 + rng.Intn(min(i, 16))
			accs = append(accs, spec.Access{Elem: int32(i - back), Kind: spec.Read})
		}
		l.AddIter(accs...)
	}
	return l
}

// RunRLRPD sweeps dependence densities on a TRACK-like loop, verifying
// correctness against sequential execution and reporting the speedups
// R-LRPD extracts.
func RunRLRPD(iters, procs int) []RLRPDResult {
	var out []RLRPDResult
	for i, depFrac := range []float64{0, 0.01, 0.05, 0.2, 0.5} {
		l := trackLikeLoop(iters, depFrac, int64(1000+i))
		init := make([]float64, l.NumElems)
		for j := range init {
			init[j] = float64(j%11) * 0.25
		}
		plain := l.LRPD(init, procs)
		got, st := l.RLRPD(init, procs)
		want := l.RunSequential(init)
		for j := range want {
			if diff := got[j] - want[j]; diff > 1e-9 || diff < -1e-9 {
				panic(fmt.Sprintf("experiments: R-LRPD wrong at %d (depFrac %g)", j, depFrac))
			}
		}
		out = append(out, RLRPDResult{
			DepFraction:     depFrac,
			Iters:           iters,
			Procs:           procs,
			PlainLRPDPassed: plain.Passed,
			Passes:          st.Passes,
			Replication:     float64(st.IterationsExecuted) / float64(iters),
			Speedup:         st.SpeedupEstimate(iters, procs),
		})
	}
	return out
}

// FormatRLRPD renders the sweep.
func FormatRLRPD(results []RLRPDResult) string {
	header := []string{"dep%", "plain-LRPD", "passes", "replication", "speedup"}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		plain := "fails"
		if r.PlainLRPDPassed {
			plain = "passes"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", r.DepFraction*100),
			plain,
			fmt.Sprintf("%d", r.Passes),
			fmt.Sprintf("%.2fx", r.Replication),
			fmt.Sprintf("%.1f", r.Speedup),
		})
	}
	out := stats.FormatTable(header, rows)
	out += "\nplain speculation fails on any dependence; R-LRPD commits the prefix and re-executes only the remainder\n"
	return out
}
