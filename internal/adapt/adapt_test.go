package adapt

import (
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/workloads"
)

// profileWith builds a synthetic profile with the given scalar metrics.
func profileWith(mo, sp, chr, dim float64) *pattern.Profile {
	return &pattern.Profile{MO: mo, SP: sp, CHR: chr, DIM: dim}
}

func TestRecommendRules(t *testing.T) {
	cases := []struct {
		name string
		p    *pattern.Profile
		want string
	}{
		{"spice-like: very sparse, high mobility", profileWith(28, 0.15, 0.125, 2.9), "hash"},
		{"sparse but low mobility is not hash", profileWith(2, 0.25, 0.26, 31), "sel"},
		{"high CHR small array", profileWith(2, 25, 0.92, 1.5), "rep"},
		{"high CHR large array", profileWith(2, 5, 0.71, 7.6), "lw"},
		{"moderate CHR", profileWith(2, 1.69, 0.33, 1.07), "ll"},
		{"low CHR small dense array", profileWith(1, 25, 0.25, 0.39), "ll"},
		{"low CHR large array", profileWith(1, 6.25, 0.25, 1.95), "sel"},
		{"low CHR small sparse array", profileWith(1, 0.6, 0.2, 0.11), "sel"},
	}
	for _, c := range cases {
		got := Recommend(c.p)
		if got.Scheme != c.want {
			t.Errorf("%s: Recommend = %s (%s), want %s", c.name, got.Scheme, got.Why, c.want)
		}
		if got.Why == "" {
			t.Errorf("%s: missing rationale", c.name)
		}
	}
}

func TestRecommendReproducesPaperFig3Column(t *testing.T) {
	// For every Figure 3 row, the decision algorithm run on the *paper's*
	// published metrics must reproduce the paper's "Recommended scheme".
	// DIM is derived from the row's dimension and the 512 KB L2.
	for _, r := range workloads.Fig3Rows() {
		p := profileWith(float64(r.Spec.MO), r.Spec.SPPercent, r.Spec.CHR,
			float64(r.Spec.Dim*8)/float64(512<<10))
		got := Recommend(p)
		if got.Scheme != r.PaperRecommend {
			t.Errorf("%s dim=%d (MO=%d SP=%.2f CHR=%.2f DIM=%.2f): Recommend = %s, paper says %s",
				r.App, r.Spec.Dim, r.Spec.MO, r.Spec.SPPercent, r.Spec.CHR,
				float64(r.Spec.Dim*8)/float64(512<<10), got.Scheme, r.PaperRecommend)
		}
	}
}

func TestRecommendOnMeasuredProfiles(t *testing.T) {
	// Recommendations must also hold on *measured* profiles of generated
	// loops (scaled down with proportionally scaled cache), not just on
	// the published numbers.
	for _, r := range workloads.Fig3Rows() {
		// Spice's touched set is ~0.15% of the array; at tiny scales it
		// collapses to a handful of elements and MO degenerates, so the
		// sparse rows get a gentler scale (with the cache scaled alike).
		scale := 0.05
		if r.Spec.SPPercent < 1 {
			scale = 0.3
		}
		l := r.Generate(scale)
		cfgCache := int(float64(512<<10) * scale)
		p := pattern.Characterize(l, 8, cfgCache)
		got := Recommend(p)
		if got.Scheme != r.PaperRecommend {
			t.Errorf("%s dim=%d: measured profile %s -> %s, paper recommends %s",
				r.App, r.Spec.Dim, p, got.Scheme, r.PaperRecommend)
		}
	}
}

func TestSchemeForPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SchemeFor(Recommendation{Scheme: "bogus"})
}

func TestThresholdStability(t *testing.T) {
	// Nudging every threshold by ±4% must not change any
	// Figure 3 recommendation. The margin cannot be wider: the paper's
	// own data places Moldyn's CHR values 0.36 and 0.33 on opposite
	// sides of the rep/ll boundary, only ~4.3% away from its center.
	base := DefaultThresholds()
	perturb := func(f float64) Thresholds {
		return Thresholds{
			HashMaxSP: base.HashMaxSP * f, HashMinMO: base.HashMinMO * f,
			RepMinCHR: base.RepMinCHR * f, RepMaxDIM: base.RepMaxDIM * f,
			LLMinCHR: base.LLMinCHR * f, LLMaxDIM: base.LLMaxDIM * f,
			LLMinSP: base.LLMinSP * f,
		}
	}
	for _, f := range []float64{0.96, 1.04} {
		th := perturb(f)
		for _, r := range workloads.Fig3Rows() {
			p := profileWith(float64(r.Spec.MO), r.Spec.SPPercent, r.Spec.CHR,
				float64(r.Spec.Dim*8)/float64(512<<10))
			got := RecommendWith(p, th)
			if got.Scheme != r.PaperRecommend {
				t.Errorf("thresholds x%.2f: %s dim=%d flips to %s (paper %s)",
					f, r.App, r.Spec.Dim, got.Scheme, r.PaperRecommend)
			}
		}
	}
}

func TestRationaleMentionsDrivingMetric(t *testing.T) {
	rec := Recommend(profileWith(28, 0.15, 0.125, 2.9))
	if !strings.Contains(rec.Why, "SP=") {
		t.Errorf("hash rationale should cite sparsity: %q", rec.Why)
	}
	rec = Recommend(profileWith(2, 25, 0.92, 1.5))
	if !strings.Contains(rec.Why, "CHR=") {
		t.Errorf("rep rationale should cite CHR: %q", rec.Why)
	}
}
