// Package experiments regenerates every table and figure of the paper's
// evaluation: the Figure 3 adaptive-selection table, Table 1's modeled
// architecture, Table 2's application characteristics, Figure 6's
// execution-time breakdown and Figure 7's scalability study, plus the
// Section 3 R-LRPD demonstration. Each experiment returns structured rows
// (consumed by cmd/smartapps and this package's benchmarks) and can run at reduced
// scale with the cache geometry scaled alongside so that every
// dimensionless regime of the paper is preserved.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/adapt"
	"repro/internal/lab/simred"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/vtime"
	"repro/internal/workloads"
)

// Fig3Result is the reproduction of one row of the paper's Figure 3.
type Fig3Result struct {
	App, LoopName string
	Dim           int
	Profile       *pattern.Profile
	// Recommended is this implementation's decision-algorithm output;
	// PaperRecommend is the paper's column.
	Recommended    string
	Why            string
	PaperRecommend string
	// Ranking is the measured (virtual-time) scheme ordering, best first;
	// PaperOrder is the paper's measured ordering.
	Ranking    []simred.Measured
	PaperOrder []string
	// RecommendMatchesPaper: our decision == paper's decision column.
	RecommendMatchesPaper bool
	// BestMatchesPaperBest: our measured winner == paper's measured
	// winner, comparing only the schemes the paper actually ran on this
	// row (Spice rows omit sel and lw in the paper).
	BestMatchesPaperBest bool
	// Hit: our recommendation == our measured winner (the paper's own
	// validation criterion for its model).
	Hit bool
}

// subsetWinner returns the best-ranked scheme among those in subset.
func subsetWinner(ranking []simred.Measured, subset []string) string {
	in := make(map[string]bool, len(subset))
	for _, s := range subset {
		in[s] = true
	}
	for _, m := range ranking {
		if in[m.Scheme] {
			return m.Scheme
		}
	}
	return ""
}

// Fig3Scale describes how a Figure 3 run was scaled.
type Fig3Scale struct {
	// Dense is the scale factor for ordinary rows; Sparse the gentler
	// factor for very sparse rows (Spice), whose tiny touched sets
	// degenerate at aggressive scales.
	Dense, Sparse float64
	// Procs is the processor count (8 in the paper).
	Procs int
}

// DefaultFig3Scale runs at a practical fraction of the paper's sizes; the
// regime of every row (all dimensionless metrics) is preserved because the
// cache is scaled with the data.
func DefaultFig3Scale() Fig3Scale { return Fig3Scale{Dense: 0.15, Sparse: 0.4, Procs: 8} }

// FullFig3Scale runs the paper's exact input sizes.
func FullFig3Scale() Fig3Scale { return Fig3Scale{Dense: 1, Sparse: 1, Procs: 8} }

// scaleFor picks the row's scale factor.
func (s Fig3Scale) scaleFor(r workloads.Fig3Row) float64 {
	if r.Spec.SPPercent < 1 {
		return s.Sparse
	}
	return s.Dense
}

// configFor returns the Table 1 cost model with caches scaled by f. The
// TLB reach (entries x page size) scales alongside so that
// translation-footprint effects are preserved at reduced scale.
func configFor(f float64) vtime.Config {
	cfg := vtime.DefaultConfig()
	cfg.L1Bytes = scaleCache(cfg.L1Bytes, f)
	cfg.L2Bytes = scaleCache(cfg.L2Bytes, f)
	if f < 1 {
		cfg.TLBEntries = int(float64(cfg.TLBEntries) * f)
		if cfg.TLBEntries < 8 {
			cfg.TLBEntries = 8
		}
	}
	return cfg
}

func scaleCache(bytes int, f float64) int {
	v := int(float64(bytes) * f)
	// Keep geometry valid: at least one set per way at 64B lines.
	if v < 1024 {
		v = 1024
	}
	return v
}

// RunFig3 reproduces the Figure 3 table at the given scale.
func RunFig3(sc Fig3Scale) []Fig3Result {
	rows := workloads.Fig3Rows()
	results := make([]Fig3Result, 0, len(rows))
	for _, r := range rows {
		results = append(results, runFig3Row(r, sc))
	}
	return results
}

func runFig3Row(r workloads.Fig3Row, sc Fig3Scale) Fig3Result {
	f := sc.scaleFor(r)
	l := r.Generate(f)
	cfg := configFor(f)
	prof := pattern.Characterize(l, sc.Procs, cfg.L2Bytes)
	rec := adapt.Recommend(prof)
	ranking := simred.Rank(l, sc.Procs, cfg)

	res := Fig3Result{
		App: r.App, LoopName: r.LoopName, Dim: r.Spec.Dim,
		Profile:        prof,
		Recommended:    rec.Scheme,
		Why:            rec.Why,
		PaperRecommend: r.PaperRecommend,
		Ranking:        ranking,
		PaperOrder:     r.PaperOrder,
	}
	res.RecommendMatchesPaper = res.Recommended == r.PaperRecommend
	if len(ranking) > 0 && len(r.PaperOrder) > 0 {
		res.BestMatchesPaperBest = subsetWinner(ranking, r.PaperOrder) == r.PaperOrder[0]
		res.Hit = ranking[0].Scheme == rec.Scheme
	}
	return res
}

// Fig3Summary aggregates reproduction quality over all rows.
type Fig3Summary struct {
	Rows             int
	RecommendMatches int // our decision column == paper's
	BestMatches      int // our measured winner == paper's winner
	Hits             int // our recommendation == our measured winner
	PaperHits        int // paper's recommendation == paper's winner (17/21)
}

// Summarize computes the aggregate counters.
func Summarize(results []Fig3Result) Fig3Summary {
	s := Fig3Summary{Rows: len(results)}
	for _, r := range results {
		if r.RecommendMatchesPaper {
			s.RecommendMatches++
		}
		if r.BestMatchesPaperBest {
			s.BestMatches++
		}
		if r.Hit {
			s.Hits++
		}
		if r.PaperRecommend == r.PaperOrder[0] {
			s.PaperHits++
		}
	}
	return s
}

// FormatFig3 renders the reproduction as a table shaped like the paper's
// Figure 3, with measured metrics and both orderings.
func FormatFig3(results []Fig3Result) string {
	header := []string{"APP", "MO", "INPUT", "SP%", "CON", "CHR", "Recom.", "Paper", "Measured order", "Paper order"}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.App,
			fmt.Sprintf("%.1f", r.Profile.MO),
			fmt.Sprintf("%d", r.Dim),
			fmt.Sprintf("%.3g", r.Profile.SP),
			fmt.Sprintf("%.3g", r.Profile.CON),
			fmt.Sprintf("%.2f", r.Profile.CHR),
			r.Recommended,
			r.PaperRecommend,
			orderWithSpeedups(r.Ranking),
			strings.Join(r.PaperOrder, ">"),
		})
	}
	s := Summarize(results)
	out := stats.FormatTable(header, rows)
	out += fmt.Sprintf("\nrows=%d  recommendation-matches-paper=%d/%d  measured-winner-matches-paper=%d/%d  model-hits-measured-winner=%d/%d (paper's own model: %d/%d)\n",
		s.Rows, s.RecommendMatches, s.Rows, s.BestMatches, s.Rows, s.Hits, s.Rows, s.PaperHits, s.Rows)
	return out
}

func orderWithSpeedups(ms []simred.Measured) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("%s(%.1f)", m.Scheme, m.Speedup)
	}
	return strings.Join(parts, ">")
}
