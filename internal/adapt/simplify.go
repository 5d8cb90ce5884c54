package adapt

import "fmt"

// This file holds the decision boundary for the reduction-simplification
// layer (pattern.AnalyzeSegments + reduction.SegPlan): given a loop's
// measured segment structure against the segment sums the engine already
// holds, decide whether the simplified execution — per-segment partial
// sums, only the uncached ones computed, folded in order — beats running
// the full reference stream directly. It is the Figure 3 idea applied
// one level up: instead of choosing *which* parallel scheme executes a
// loop, it chooses whether earlier executions let most of the work be
// skipped before any scheme runs at all.
//
// The rule is a cost comparison in units of one reference-stream
// element. The direct path touches Members×RefsPerMember references; the
// simplified path pays an analysis sweep over the same references, the
// accumulation of only the unique uncached segments, and a combine
// column of Segments parts per member per element. With no segment
// cached there is nothing to reuse and the loop runs direct. Both sides
// and the cut-points are exercised from simplify_test.go, including the
// geometries the engine's recalibration tests depend on staying direct.

// SimplifyInput is the evidence RecommendSimplify weighs for one
// execution. The engine fills it from pattern.SegmentAnalysis plus its
// own cache state.
type SimplifyInput struct {
	// Members, Segments and Unique come from the segment analysis:
	// analyzed members, segment count, and distinct (owner == member)
	// partial sums a simplified run would compute.
	Members  int
	Segments int
	Unique   int
	// CachedTasks is how many of those unique partial sums are already
	// verified in the engine's segment cache and cost nothing to
	// recompute.
	CachedTasks int
	// RefsPerMember is one member's reference-stream length (the direct
	// path's per-member work). NumElems is the output array dimension
	// (the combine cost scales with it).
	RefsPerMember int
	NumElems      int
	// ConstRunFrac is the leader's constant-run fraction from the
	// analysis; long runs keep the direct path's gathers cache-resident
	// and shrink the win from skipping them.
	ConstRunFrac float64
}

// SimplifyThresholds are the boundary's tunable cut-points.
type SimplifyThresholds struct {
	// AnalyzeCostRatio is the per-reference cost of the segment
	// analysis (hash + ownership verify) relative to the direct path's
	// per-reference cost.
	AnalyzeCostRatio float64
	// CombineCostRatio is the per-element cost of one segment-combine
	// column relative to the direct path's per-reference cost.
	CombineCostRatio float64
	// MinAdvantage is the fractional margin the simplified cost must
	// clear below the direct cost before switching: the model's
	// constants are calibrated, not measured, so the boundary keeps a
	// guard band against flapping near the break-even line.
	MinAdvantage float64
}

// DefaultSimplifyThresholds returns the calibrated boundary.
func DefaultSimplifyThresholds() SimplifyThresholds {
	return SimplifyThresholds{
		AnalyzeCostRatio: 0.15,
		CombineCostRatio: 0.15,
		MinAdvantage:     0.2,
	}
}

// simplifyCosts evaluates both sides of the boundary in direct-path
// per-reference units.
func simplifyCosts(in SimplifyInput, t SimplifyThresholds) (direct, simplified float64) {
	r := float64(in.RefsPerMember)
	// Constant runs discount the direct path: a reference repeating its
	// predecessor hits the same cache line and store-forwarded element,
	// costing roughly half a fresh gather.
	g := 1 - 0.5*in.ConstRunFrac
	direct = float64(in.Members) * r * g

	analyze := float64(in.Members) * r * t.AnalyzeCostRatio
	fresh := in.Unique - in.CachedTasks
	if fresh < 0 {
		fresh = 0
	}
	accumulate := float64(fresh) * (r / float64(in.Segments)) * g
	combine := float64(in.Members) * float64(in.Segments) * float64(in.NumElems) * t.CombineCostRatio
	simplified = analyze + accumulate + combine
	return direct, simplified
}

// SimplifyRationale is RecommendSimplify's one-line explanation in the
// style of Recommend, kept as the numbers behind it: the engine asks the
// boundary on every analyzed execution but only an executed one delivers a
// Result.Why, so the text is formatted by String, on demand.
type SimplifyRationale struct {
	verdict            simplifyVerdict
	in                 SimplifyInput
	t                  SimplifyThresholds
	direct, simplified float64
}

type simplifyVerdict uint8

const (
	verdictDegenerate simplifyVerdict = iota
	verdictColdCache
	verdictWins
	verdictWithinMargin
)

func (r SimplifyRationale) String() string {
	switch r.verdict {
	case verdictColdCache:
		return "no cached segment; direct"
	case verdictWins:
		return fmt.Sprintf("simplified cost %.0f beats direct %.0f by >%d%% (unique %d/%d, cached %d)",
			r.simplified, r.direct, int(r.t.MinAdvantage*100), r.in.Unique, r.in.Members*r.in.Segments, r.in.CachedTasks)
	case verdictWithinMargin:
		return fmt.Sprintf("simplified cost %.0f within %d%% of direct %.0f; direct",
			r.simplified, int(r.t.MinAdvantage*100), r.direct)
	default: // verdictDegenerate
		return "degenerate input; direct"
	}
}

// RecommendSimplify decides whether an execution goes through the
// simplified plan. It returns the decision and its rationale.
func RecommendSimplify(in SimplifyInput, t SimplifyThresholds) (bool, SimplifyRationale) {
	r := SimplifyRationale{in: in, t: t}
	if in.Members < 1 || in.Segments < 1 || in.RefsPerMember < 1 {
		return false, r
	}
	if in.CachedTasks == 0 {
		r.verdict = verdictColdCache
		return false, r
	}
	r.direct, r.simplified = simplifyCosts(in, t)
	if r.simplified < r.direct*(1-t.MinAdvantage) {
		r.verdict = verdictWins
		return true, r
	}
	r.verdict = verdictWithinMargin
	return false, r
}

// SimplifySeedWorthwhile gates seeding a segment cache from a direct
// execution: worth it only when a later warm hit would actually win, i.e.
// the steady-state incremental cost (analysis of one member plus the
// combine column, with every segment served from cache) clears the
// boundary's margin below one member's direct cost. Loops whose output
// dimension is large relative to their reference stream fail this —
// their combine column alone rivals the direct pass — which keeps the
// engine from burning cache memory and analysis time where
// simplification can never pay.
func SimplifySeedWorthwhile(refsPerMember, numElems, segments int, t SimplifyThresholds) bool {
	if refsPerMember < 1 || segments < 1 {
		return false
	}
	warm := SimplifyInput{
		Members:       1,
		Segments:      segments,
		Unique:        segments,
		CachedTasks:   segments,
		RefsPerMember: refsPerMember,
		NumElems:      numElems,
	}
	direct, simplified := simplifyCosts(warm, t)
	return simplified < direct*(1-t.MinAdvantage)
}
