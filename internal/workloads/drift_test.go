package workloads

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/pattern"
)

// TestDriftStreamFingerprintStable pins the property the engine's
// recalibration scenario depends on: every phase variant of a hot key
// decodes to the same fingerprint, so the decision cache keeps serving
// the entry decided in an earlier phase.
func TestDriftStreamFingerprintStable(t *testing.T) {
	ds := NewDriftStream(4, 3, 8, 1.4, 0.5, 7)
	if len(ds.Phases) != 3 || len(ds.Stream) != 24 {
		t.Fatalf("got %d phases, %d stream jobs", len(ds.Phases), len(ds.Stream))
	}
	for k := 0; k < 4; k++ {
		fp := ds.Phases[0][k].Fingerprint()
		for p := 1; p < 3; p++ {
			if got := ds.Phases[p][k].Fingerprint(); got != fp {
				t.Fatalf("key %d phase %d fingerprint %x, want %x", k, p, got, fp)
			}
			if ds.Phases[p][k].EqualPattern(ds.Phases[0][k]) {
				t.Fatalf("key %d phase %d has the phase-0 pattern: nothing drifted", k, p)
			}
		}
	}
	// Distinct keys must still be distinct patterns.
	if ds.Phases[0][0].Fingerprint() == ds.Phases[0][1].Fingerprint() {
		t.Fatal("keys 0 and 1 collide")
	}
}

// TestDriftStreamDeterministic: same parameters, same stream.
func TestDriftStreamDeterministic(t *testing.T) {
	a := NewDriftStream(3, 2, 16, 1.4, 0.5, 11)
	b := NewDriftStream(3, 2, 16, 1.4, 0.5, 11)
	for i := range a.Stream {
		if !a.Stream[i].EqualPattern(b.Stream[i]) || a.Stream[i].Name != b.Stream[i].Name {
			t.Fatalf("stream diverges at %d: %s vs %s", i, a.Stream[i].Name, b.Stream[i].Name)
		}
	}
}

// TestDriftStreamPhasesCrossRecommendationBoundary proves the drift is
// semantically real: characterizing the even-phase loop recommends hash
// (sparse, mobile) while the odd-phase variant of the same key
// recommends ll (dense, low contention) — the metric shift crosses an
// adapt.Thresholds cut-point, which is what makes a phase-0 decision
// stale in phase 1.
func TestDriftStreamPhasesCrossRecommendationBoundary(t *testing.T) {
	ds := NewDriftStream(2, 2, 4, 1.4, 1, 3)
	cache := core.DefaultPlatform(8).Cfg.L2Bytes
	for k := 0; k < 2; k++ {
		sparse := pattern.Characterize(ds.Phases[0][k], 8, cache)
		dense := pattern.Characterize(ds.Phases[1][k], 8, cache)
		if got := adapt.Recommend(sparse).Scheme; got != "hash" {
			t.Errorf("key %d sparse phase: %s -> %s, want hash", k, sparse, got)
		}
		if got := adapt.Recommend(dense).Scheme; got != "ll" {
			t.Errorf("key %d dense phase: %s -> %s, want ll", k, dense, got)
		}
		if d := pattern.Distance(sparse, dense); d < 0.25 {
			t.Errorf("key %d phase distance %.3f too small to trigger re-characterization", k, d)
		}
	}
	// Stream layout: first PhaseLen jobs are phase-0 loops, then phase 1.
	for i, l := range ds.Stream {
		want := ds.Phases[i/ds.PhaseLen]
		found := false
		for _, pl := range want {
			if pl == l {
				found = true
			}
		}
		if !found {
			t.Fatalf("stream job %d (%s) not from phase %d population", i, l.Name, i/ds.PhaseLen)
		}
	}
}
