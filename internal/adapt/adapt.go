// Package adapt holds the decision boundaries of the adaptive pipeline.
// Recommend is Section 4's decision algorithm: it maps a measured
// access-pattern profile (package pattern) to the reduction scheme that
// best matches it, with a one-line rationale, and SchemeFor turns that
// into the runnable scheme. RecommendSimplify (simplify.go) is the same
// idea one level up: whether a batch's segment-overlap structure lets
// most of the work be skipped before any scheme runs. Both are pure
// functions of their evidence. The harness that validates Recommend
// against simulated execution time, the way the paper's Figure 3 does,
// is the lab's package simred.
package adapt

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/reduction"
)

// Thresholds are the decision algorithm's tunable cut-points. The paper
// characterizes each scheme's sweet spot qualitatively; these constants
// quantify them and are exercised by the threshold ablation benchmark
// (internal/experiments) and boundary_test.go. The defaults reproduce all
// twenty "Recommended scheme" entries of the paper's Figure 3.
type Thresholds struct {
	// HashMaxSP is the sparsity (percent) below which hash tables are
	// considered: "the very sparse nature of the references" (Spice is
	// 0.14–0.2%).
	HashMaxSP float64
	// HashMinMO is the minimum mobility for hash: very sparse patterns
	// with low mobility are served equally well by sel without hashing
	// overhead (Irreg's largest input has SP 0.25% but MO 2 and the paper
	// recommends sel there).
	HashMinMO float64
	// RepMinCHR is the contention ratio above which full replication is
	// on the table (enough references to amortize whole-array sweeps).
	RepMinCHR float64
	// RepMaxDIM is the largest array-to-cache ratio for which replicated
	// arrays stay cache-resident enough to win; above it, local write
	// avoids the private copies entirely.
	RepMaxDIM float64
	// LLMinCHR is the contention ratio above which lazy replicated
	// buffers beat selective privatization (below RepMinCHR).
	LLMinCHR float64
	// LLMaxDIM / LLMinSP admit ll in the low-CHR regime: a small array
	// densely touched (Nbf's smallest input) still favors ll over sel.
	LLMaxDIM float64
	LLMinSP  float64
}

// DefaultThresholds returns the calibrated decision points.
func DefaultThresholds() Thresholds {
	// RepMinCHR and LLMinCHR are centered between the closest Figure 3
	// rows on either side of each boundary (Moldyn's 0.36 vs 0.33 around
	// RepMinCHR; Moldyn's 0.29 vs Irreg's 0.26 around LLMinCHR), which
	// maximizes their perturbation margins (~±4–5%).
	return Thresholds{
		HashMaxSP: 0.5,
		HashMinMO: 8,
		RepMinCHR: 0.345,
		RepMaxDIM: 2.0,
		LLMinCHR:  0.275,
		LLMaxDIM:  0.5,
		LLMinSP:   5.0,
	}
}

// Recommendation is the decision algorithm's output.
type Recommendation struct {
	// Scheme is the paper abbreviation of the selected algorithm.
	Scheme string
	// Why is a one-line human-readable rationale.
	Why string
}

// Recommend runs the paper's decision algorithm on a measured profile
// using the default thresholds.
func Recommend(p *pattern.Profile) Recommendation {
	return RecommendWith(p, DefaultThresholds())
}

// RecommendWith runs the decision algorithm with explicit thresholds.
//
// The rule structure follows the paper's taxonomy: extreme sparsity with
// high mobility selects hash; high contention ratio selects a replicated
// scheme (full replication while the array is cache-scaled, local write
// once private copies would be too large); moderate contention selects
// the lazy replicated buffer; everything else — large, sparsely and
// irregularly referenced arrays — selects selective privatization.
func RecommendWith(p *pattern.Profile, t Thresholds) Recommendation {
	switch {
	case p.SP < t.HashMaxSP && p.MO > t.HashMinMO:
		return Recommendation{"hash", fmt.Sprintf("very sparse (SP=%.2f%% < %.2f%%) with high mobility (MO=%.1f): private hash tables shrink the processed space", p.SP, t.HashMaxSP, p.MO)}
	case p.CHR >= t.RepMinCHR && p.DIM <= t.RepMaxDIM:
		return Recommendation{"rep", fmt.Sprintf("high contention (CHR=%.2f) and cache-scaled array (DIM=%.2f): replicated arrays amortize their sweeps", p.CHR, p.DIM)}
	case p.CHR >= t.RepMinCHR:
		return Recommendation{"lw", fmt.Sprintf("high contention (CHR=%.2f) but large array (DIM=%.2f): owner-computes avoids private copies", p.CHR, p.DIM)}
	case p.CHR >= t.LLMinCHR:
		return Recommendation{"ll", fmt.Sprintf("moderate contention (CHR=%.2f): lazy replicated buffers skip the full-array sweeps", p.CHR)}
	case p.DIM <= t.LLMaxDIM && p.SP >= t.LLMinSP:
		return Recommendation{"ll", fmt.Sprintf("small array (DIM=%.2f) densely touched (SP=%.1f%%): lazy buffers win despite low CHR", p.DIM, p.SP)}
	default:
		return Recommendation{"sel", fmt.Sprintf("low contention (CHR=%.2f) over a large/sparse array (DIM=%.2f, SP=%.2f%%): privatize only conflicting elements", p.CHR, p.DIM, p.SP)}
	}
}

// SchemeFor returns the runnable Scheme for a recommendation, so callers
// can execute the selected algorithm for real.
func SchemeFor(rec Recommendation) reduction.Scheme {
	s, err := reduction.ByName(rec.Scheme)
	if err != nil {
		// The decision algorithm only emits library names; reaching this
		// is a programming error.
		panic(err)
	}
	return s
}
