package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// HotKeySet returns n distinct reduction patterns cycling through the
// regime templates of MixedSet, each with its own seed and jittered
// dimension so every pattern has a distinct fingerprint. It is the pattern
// population behind the Zipf-skewed service stream.
func HotKeySet(n int, scale float64) []*trace.Loop {
	templates := []PatternSpec{
		{Dim: 4000, SPPercent: 70, CHR: 0.9, MO: 2, Locality: 0.6, Work: 6},
		{Dim: 3000, SPPercent: 40, CHR: 0.8, MO: 3, Locality: 0.3, Skew: 2, Work: 5},
		{Dim: 16000, SPPercent: 25, CHR: 0.3, MO: 3, Locality: 0.9, Work: 8},
		{Dim: 10000, SPPercent: 35, CHR: 0.3, MO: 2, Locality: 0.5, Work: 7},
	}
	loops := make([]*trace.Loop, n)
	for i := 0; i < n; i++ {
		spec := templates[i%len(templates)]
		// Jitter the dimension so same-template patterns are structurally
		// distinct (different fingerprints), like distinct client datasets
		// of similar shape.
		spec.Dim += 64 * (i / len(templates))
		spec.Seed = int64(1000 + i)
		loops[i] = Generate(fmt.Sprintf("hotkey-%02d", i), spec, scale)
	}
	return loops
}

// ZipfStream returns a job stream of the given length over the pattern
// population: stream[j] points at loops[rank] with ranks drawn from a
// Zipf(s) distribution, so a few hot patterns dominate the traffic — the
// shape of production reduction services, and the regime where the
// engine's decision cache and resident totals do the work (hot patterns
// repeat, so most jobs find their answer already computed). s must be > 1; larger
// values concentrate more of the stream on the hottest patterns.
func ZipfStream(loops []*trace.Loop, length int, s float64, seed int64) []*trace.Loop {
	if len(loops) == 0 {
		panic("workloads: ZipfStream over an empty pattern set")
	}
	if s <= 1 {
		panic(fmt.Sprintf("workloads: Zipf exponent must be > 1, got %g", s))
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(len(loops)-1))
	stream := make([]*trace.Loop, length)
	for i := range stream {
		stream[i] = loops[z.Uint64()]
	}
	return stream
}
