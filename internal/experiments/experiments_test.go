package experiments

import (
	"strings"
	"sync"
	"testing"
)

// tinyFig3 computes Figure 3 at the test scale once per test binary; the
// tests that read it share the one result.
var tinyFig3 = sync.OnceValue(func() []Fig3Result {
	return RunFig3(Fig3Scale{Dense: 0.04, Sparse: 0.3, Procs: 8})
})

func TestFig3RecommendationsAllMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("computes all 21 Figure 3 rows once for both Fig. 3 tests (~25s); run without -short")
	}
	res := tinyFig3()
	s := Summarize(res)
	if s.Rows != 21 {
		t.Fatalf("rows = %d, want 21", s.Rows)
	}
	if s.RecommendMatches != s.Rows {
		for _, r := range res {
			if !r.RecommendMatchesPaper {
				t.Errorf("%s dim=%d: recommended %s, paper %s (profile %v)",
					r.App, r.Dim, r.Recommended, r.PaperRecommend, r.Profile)
			}
		}
	}
	// The paper's own model hit 16/21; ours should be in the same league
	// on the measured side.
	if s.BestMatches < 7 {
		t.Errorf("measured-winner matches = %d/21, expected at least 7", s.BestMatches)
	}
}

func TestFig3FormatContainsSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("computes all 21 Figure 3 rows once for both Fig. 3 tests (~25s); run without -short")
	}
	out := FormatFig3(tinyFig3())
	if !strings.Contains(out, "recommendation-matches-paper=21/21") {
		t.Errorf("summary line missing or wrong:\n%s", out[len(out)-200:])
	}
}

func TestPCLRAppsOrderingInvariant(t *testing.T) {
	res := RunPCLRApps(16, 0.05)
	if len(res) != 5 {
		t.Fatalf("apps = %d", len(res))
	}
	flexBeatsSw := 0
	for _, r := range res {
		if !(r.SpeedupHw >= r.SpeedupFlex) {
			t.Errorf("%s: Hw (%.1f) must beat Flex (%.1f)", r.App.Name, r.SpeedupHw, r.SpeedupFlex)
		}
		if r.SpeedupFlex >= r.SpeedupSw {
			flexBeatsSw++
		}
	}
	// Flex beats Sw for all five apps at the paper's scale; at the tiny
	// test scale the displacement-heaviest app (Nbf) can saturate the
	// programmable controller, so allow one outlier.
	if flexBeatsSw < 4 {
		t.Errorf("Flex beats Sw on only %d/5 apps", flexBeatsSw)
	}
	// Vml must displace nothing (Table 2).
	for _, r := range res {
		if r.App.Name == "Vml" && r.HwStats.LinesDisplaced != 0 {
			t.Errorf("Vml displaced %d lines, paper says 0", r.HwStats.LinesDisplaced)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all 5 apps at 3 machine sizes (~24s under -race); run without -short")
	}
	pts := RunFig7(0.05)
	if len(pts) != 3 || pts[0].Procs != 4 || pts[2].Procs != 16 {
		t.Fatalf("unexpected points: %+v", pts)
	}
	if !(pts[2].Hw > pts[1].Hw && pts[1].Hw > pts[0].Hw) {
		t.Errorf("Hw must scale: %v", []float64{pts[0].Hw, pts[1].Hw, pts[2].Hw})
	}
	// Sw flattens: its 16p/4p ratio must be far below Hw's.
	swGrowth := pts[2].Sw / pts[0].Sw
	hwGrowth := pts[2].Hw / pts[0].Hw
	if swGrowth > 0.8*hwGrowth {
		t.Errorf("Sw should flatten relative to Hw: growth %.2f vs %.2f", swGrowth, hwGrowth)
	}
}

func TestRLRPDExperiment(t *testing.T) {
	res := RunRLRPD(1500, 8)
	if len(res) != 5 {
		t.Fatalf("sweep points = %d", len(res))
	}
	if res[0].DepFraction != 0 || !res[0].PlainLRPDPassed {
		t.Error("the dependence-free case must pass plain LRPD")
	}
	foundFail := false
	for _, r := range res[1:] {
		if !r.PlainLRPDPassed {
			foundFail = true
		}
	}
	if !foundFail {
		t.Error("plain LRPD should fail on dependent instances")
	}
	// Speedup decreases with dependence density.
	if res[1].Speedup < res[len(res)-1].Speedup {
		t.Errorf("speedup should fall with density: %.1f vs %.1f",
			res[1].Speedup, res[len(res)-1].Speedup)
	}
	if !strings.Contains(FormatRLRPD(res), "R-LRPD") {
		t.Error("format output malformed")
	}
}

func TestTable2Format(t *testing.T) {
	out := FormatTable2(RunPCLRApps(16, 0.05))
	for _, needle := range []string{"Euler", "Nbf", "Average", "Flushed"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Table 2 output missing %q", needle)
		}
	}
}
