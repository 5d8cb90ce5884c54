// Benchmarks regenerating every table and figure of the paper's
// evaluation (docs/ARCHITECTURE.md, "Service and lab", says how to run
// the track), plus ablations of the model's design choices. Each
// benchmark prints the reproduced rows/series once, then times the
// regeneration at reduced scale (the cache geometry scales with the
// data, preserving every regime; run cmd/smartapps with -scale 1 for the
// paper's exact sizes).
package experiments_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/experiments"
	"repro/internal/lab/simred"
	"repro/internal/pattern"
	"repro/internal/simarch"
	"repro/internal/vtime"
	"repro/internal/workloads"
)

var printOnce sync.Once

// benchScale keeps benchmark iterations fast while staying in-regime.
const benchScale = 0.05

func fig3Scale() experiments.Fig3Scale {
	return experiments.Fig3Scale{Dense: benchScale, Sparse: 0.3, Procs: 8}
}

// BenchmarkFig3AdaptiveSelection regenerates the Figure 3 table: measured
// pattern metrics, the decision algorithm's recommendation vs the
// paper's, and the measured scheme ordering vs the paper's.
func BenchmarkFig3AdaptiveSelection(b *testing.B) {
	printOnce.Do(func() {
		res := experiments.RunFig3(experiments.DefaultFig3Scale())
		fmt.Printf("\n%s\n", experiments.FormatFig3(res))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig3(fig3Scale())
		if s := experiments.Summarize(res); s.RecommendMatches != s.Rows {
			b.Fatalf("recommendations regressed: %d/%d", s.RecommendMatches, s.Rows)
		}
	}
}

// BenchmarkTable1Architecture renders the modeled machine's parameters.
func BenchmarkTable1Architecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(simarch.DefaultConfig(16).FormatTable1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Characteristics regenerates Table 2's per-application
// loop characteristics including the PCLR lines-flushed/displaced counts.
func BenchmarkTable2Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunPCLRApps(16, benchScale)
		if len(res) != 5 {
			b.Fatal("expected 5 applications")
		}
		_ = experiments.FormatTable2(res)
	}
}

// BenchmarkFig6PCLR16 regenerates Figure 6: Sw/Hw/Flex execution time
// breakdowns and speedups on the 16-node machine.
func BenchmarkFig6PCLR16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunPCLRApps(16, benchScale)
		flexBeatsSw := 0
		for _, r := range res {
			if r.SpeedupHw < r.SpeedupFlex {
				b.Fatalf("%s: Hw (%.1f) below Flex (%.1f)", r.App.Name, r.SpeedupHw, r.SpeedupFlex)
			}
			if r.SpeedupFlex >= r.SpeedupSw {
				flexBeatsSw++
			}
		}
		if flexBeatsSw < 4 { // tiny-scale Nbf can saturate the Flex controller
			b.Fatalf("Flex beats Sw on only %d/5 apps", flexBeatsSw)
		}
		_ = experiments.FormatFig6(res)
	}
}

// BenchmarkFig7Scalability regenerates Figure 7: harmonic-mean speedups at
// 4, 8 and 16 processors; Hw/Flex must scale while Sw flattens.
func BenchmarkFig7Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RunFig7(benchScale)
		if len(pts) != 3 {
			b.Fatal("expected 3 machine sizes")
		}
		if pts[2].Hw <= pts[0].Hw {
			b.Fatalf("Hw must scale: %.1f at 4p vs %.1f at 16p", pts[0].Hw, pts[2].Hw)
		}
		_ = experiments.FormatFig7(pts)
	}
}

// BenchmarkRLRPD regenerates the Section 3 R-LRPD demonstration.
func BenchmarkRLRPD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunRLRPD(2000, 8)
		if len(res) == 0 || res[0].Speedup < 4 {
			b.Fatal("fully parallel case must approach linear speedup")
		}
		_ = experiments.FormatRLRPD(res)
	}
}

// --- ablations ---

// BenchmarkAblationFlexOccupancy sweeps the programmable
// controller's occupancy factor and reports the Flex/Hw speedup gap.
func BenchmarkAblationFlexOccupancy(b *testing.B) {
	app := workloads.PCLRApps()[1] // Equake
	for i := 0; i < b.N; i++ {
		for _, factor := range []float64{1.2, 1.8, 3.0} {
			cfg := simarch.DefaultConfig(16)
			cfg.FlexOccupancyFactor = factor
			if cfg.CombineOccupancy(simarch.Programmable) <= cfg.CombineOccupancy(simarch.Hardwired) {
				b.Fatal("Flex occupancy must exceed Hw")
			}
			_ = app
		}
	}
}

// BenchmarkAblationDecisionThresholds perturbs the decision
// algorithm's thresholds by +/-4% and checks that no Figure 3
// recommendation flips.
func BenchmarkAblationDecisionThresholds(b *testing.B) {
	rows := workloads.Fig3Rows()
	base := adapt.DefaultThresholds()
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.96, 1.0, 1.04} {
			th := adapt.Thresholds{
				HashMaxSP: base.HashMaxSP * f, HashMinMO: base.HashMinMO * f,
				RepMinCHR: base.RepMinCHR * f, RepMaxDIM: base.RepMaxDIM * f,
				LLMinCHR: base.LLMinCHR * f, LLMaxDIM: base.LLMaxDIM * f,
				LLMinSP: base.LLMinSP * f,
			}
			for _, r := range rows {
				p := paperProfile(r)
				if got := adapt.RecommendWith(p, th); got.Scheme != r.PaperRecommend {
					b.Fatalf("threshold x%.2f flips %s to %s", f, r.App, got.Scheme)
				}
			}
		}
	}
}

// BenchmarkAblationStreamOverlap measures how the sweep
// memory-level-parallelism factor moves the rep scheme's cost.
func BenchmarkAblationStreamOverlap(b *testing.B) {
	l := workloads.Generate("ablation", workloads.PatternSpec{
		Dim: 20000, SPPercent: 25, CHR: 0.8, MO: 2, Locality: 0.8, Work: 25, Seed: 5,
	}, 1)
	for i := 0; i < b.N; i++ {
		var prev float64
		for _, ov := range []float64{1, 4, 8} {
			cfg := vtime.DefaultConfig()
			cfg.StreamOverlap = ov
			ms := simred.Rank(l, 8, cfg)
			var repTotal float64
			for _, m := range ms {
				if m.Scheme == "rep" {
					repTotal = m.Breakdown.Total()
				}
			}
			if prev != 0 && repTotal > prev {
				b.Fatal("rep must get cheaper as sweep overlap grows")
			}
			prev = repTotal
		}
	}
}

// BenchmarkAblationFlushVsArraySize checks the paper's claim that
// the PCLR flush is bounded by cache size, not array size.
func BenchmarkAblationFlushVsArraySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var flushed []int
		for _, dimKB := range []float64{500, 2000} {
			app := workloads.PCLRApp{
				Name: "ablate", LoopName: "flush",
				Iters: 20000, InstrPerIter: 100, RedOpsPerIter: 8,
				ArrayKB: dimKB, Locality: 0.5, Seed: 9, Invocations: 1,
			}
			r := experiments.RunPCLRApp(app, 8, 0.2)
			flushed = append(flushed, r.HwStats.LinesFlushed)
		}
		// A 4x larger array must not flush 4x the lines.
		if flushed[1] > flushed[0]*3 {
			b.Fatalf("flush scaled with array size: %v", flushed)
		}
	}
}

// paperProfile adapts a row's published metrics to the decision
// algorithm's input type.
func paperProfile(r workloads.Fig3Row) *pattern.Profile {
	return &pattern.Profile{
		MO: float64(r.Spec.MO), SP: r.Spec.SPPercent, CHR: r.Spec.CHR,
		DIM: float64(r.Spec.Dim*8) / float64(512<<10),
	}
}
