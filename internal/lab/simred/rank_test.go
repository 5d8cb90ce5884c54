package simred

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/reduction"
	"repro/internal/vtime"
	"repro/internal/workloads"
)

func TestSimulateSequentialPositiveAndDeterministic(t *testing.T) {
	l := workloads.Generate("t", workloads.PatternSpec{
		Dim: 2000, SPPercent: 20, CHR: 0.4, MO: 2, Work: 10, Seed: 3,
	}, 1)
	a := SimulateSequential(l, vtime.DefaultConfig())
	b := SimulateSequential(l, vtime.DefaultConfig())
	if a <= 0 || a != b {
		t.Errorf("sequential time %g / %g: want positive and deterministic", a, b)
	}
}

func TestRankOrderingAndSpeedups(t *testing.T) {
	l := workloads.Generate("t", workloads.PatternSpec{
		Dim: 4000, SPPercent: 25, CHR: 0.6, MO: 2, Locality: 0.8, Work: 20, Seed: 4,
	}, 1)
	ms := Rank(l, 8, vtime.DefaultConfig())
	if len(ms) != len(reduction.All()) {
		t.Fatalf("Rank returned %d entries, want %d", len(ms), len(reduction.All()))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Breakdown.Total() < ms[i-1].Breakdown.Total() {
			t.Errorf("ranking not sorted at %d", i)
		}
	}
	for _, m := range ms {
		if m.Speedup <= 0 {
			t.Errorf("%s: non-positive speedup %g", m.Scheme, m.Speedup)
		}
	}
	// The best scheme on 8 processors should actually beat sequential.
	if ms[0].Speedup < 1 {
		t.Errorf("best scheme %s has speedup %.2f < 1", ms[0].Scheme, ms[0].Speedup)
	}
}

func TestOrderFormat(t *testing.T) {
	ms := []Measured{{Scheme: "rep"}, {Scheme: "ll"}, {Scheme: "sel"}}
	if got := Order(ms); got != "rep > ll > sel" {
		t.Errorf("Order = %q", got)
	}
	if got := Order(nil); got != "" {
		t.Errorf("Order(nil) = %q", got)
	}
}

func TestSelectPipeline(t *testing.T) {
	l := workloads.Generate("t", workloads.PatternSpec{
		Dim: 4000, SPPercent: 25, CHR: 0.9, MO: 2, Locality: 0.9, Work: 20, Seed: 6,
	}, 1)
	sel := Select(l, 8, vtime.Config{})
	if sel.Profile == nil || sel.Recommendation.Scheme == "" || len(sel.Ranking) == 0 {
		t.Fatalf("incomplete selection: %+v", sel)
	}
	if sel.Hit != (sel.Ranking[0].Scheme == sel.Recommendation.Scheme) {
		t.Error("Hit flag inconsistent with ranking")
	}
	// Executing the selected scheme must produce the sequential result.
	s := adapt.SchemeFor(sel.Recommendation)
	got := s.Run(l, 4)
	want := l.RunSequential()
	for i := range want {
		diff := got[i] - want[i]
		if diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("selected scheme %s wrong at %d: %g vs %g", s.Name(), i, got[i], want[i])
		}
	}
}

func BenchmarkSelect(b *testing.B) {
	l := workloads.Generate("bench", workloads.PatternSpec{
		Dim: 2000, SPPercent: 20, CHR: 0.4, MO: 2, Locality: 0.8, Work: 20, Seed: 8,
	}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select(l, 8, vtime.Config{})
	}
}
