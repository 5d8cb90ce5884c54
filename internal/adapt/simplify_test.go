package adapt

import "testing"

// Geometry of the shared-subrange workload (workloads.SharedSubrangeStream):
// a dense loop whose reference stream dwarfs its output array — the shape
// the simplification layer targets — cut into 8 segments, cached of them
// already verified in the engine's segment cache.
func denseInput(cached int) SimplifyInput {
	return SimplifyInput{
		Members:       1,
		Segments:      8,
		Unique:        8,
		CachedTasks:   cached,
		RefsPerMember: 32768,
		NumElems:      2048,
	}
}

func TestRecommendSimplifyOverlapWins(t *testing.T) {
	th := DefaultSimplifyThresholds()
	// The loop overlaps what the cache holds: every segment (an unchanged
	// repeat) or all but the one window that moved. Folding cached sums
	// beats a full direct pass.
	for _, cached := range []int{8, 7} {
		if ok, why := RecommendSimplify(denseInput(cached), th); !ok {
			t.Errorf("%d of 8 segments cached, not simplified: %s", cached, why)
		}
	}
}

func TestRecommendSimplifyColdCacheStaysDirect(t *testing.T) {
	th := DefaultSimplifyThresholds()
	// With nothing cached there is nothing to reuse: the analysis sweep
	// is pure overhead, whatever the loop's geometry.
	ok, why := RecommendSimplify(denseInput(0), th)
	if ok {
		t.Fatalf("cold loop simplified: %s", why)
	}
	if got := why.String(); got != "no cached segment; direct" {
		t.Errorf("cold rationale %q", got)
	}
}

func TestRecommendSimplifyDisjointStaysDirect(t *testing.T) {
	th := DefaultSimplifyThresholds()
	// Content almost disjoint from the cache: one segment survives, so
	// the plan recomputes seven of eight sums on top of the analysis
	// sweep and the combine column — more work than the direct path.
	if ok, why := RecommendSimplify(denseInput(1), th); ok {
		t.Errorf("mostly-disjoint loop simplified: %s", why)
	}
}

func TestRecommendSimplifyConstRunsDiscountDirect(t *testing.T) {
	th := DefaultSimplifyThresholds()
	// A loop near the boundary: half its segments cached. Without
	// constant runs it clears the margin; with the direct path
	// discounted by near-total constant runs it no longer does.
	in := denseInput(4)
	if ok, why := RecommendSimplify(in, th); !ok {
		t.Fatalf("half-cached loop without runs not simplified: %s", why)
	}
	in.ConstRunFrac = 0.95
	if ok, why := RecommendSimplify(in, th); ok {
		t.Errorf("constant-run loop simplified despite discounted direct cost: %s", why)
	}
}

// TestRecommendSimplifyRejectsDriftGeometry pins the property the
// engine's recalibration tests rely on: the drift workloads' loops have
// an output dimension (16000 elements) on the order of their reference
// stream (24000 refs), so the combine column alone eats the reuse win —
// even with every segment cached — and those loops must stay on the
// direct path: their Result schemes keep the Figure 3 names.
func TestRecommendSimplifyRejectsDriftGeometry(t *testing.T) {
	th := DefaultSimplifyThresholds()
	in := SimplifyInput{
		Members: 1, Segments: 8,
		Unique: 8, CachedTasks: 8,
		RefsPerMember: 24000, NumElems: 16000,
	}
	if ok, why := RecommendSimplify(in, th); ok {
		t.Errorf("drift-geometry loop simplified: %s", why)
	}
	if SimplifySeedWorthwhile(24000, 16000, 8, th) {
		t.Error("drift-geometry loop seeds a segment cache")
	}
}

func TestSimplifySeedWorthwhile(t *testing.T) {
	th := DefaultSimplifyThresholds()
	// Dense loop: warm incremental cost is a fraction of the direct pass.
	if !SimplifySeedWorthwhile(32768, 2048, 8, th) {
		t.Error("dense singleton does not seed")
	}
	if SimplifySeedWorthwhile(0, 2048, 8, th) || SimplifySeedWorthwhile(32768, 2048, 0, th) {
		t.Error("degenerate geometry seeds")
	}
}

func TestRecommendSimplifyDegenerate(t *testing.T) {
	th := DefaultSimplifyThresholds()
	if ok, _ := RecommendSimplify(SimplifyInput{}, th); ok {
		t.Error("zero input simplified")
	}
}
