package pattern_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// characterizeRef is the straightforward inspector pass the pooled one
// replaced: a fresh count array per call, a map for the distinct
// references of an iteration, one histogram insert per referenced element.
// It is the oracle the production pass must match field for field.
// correctSparsity selects whether a sampled profile gets the occupancy
// correction: true is the contract, false is what the code did while the
// correction tested the Sampled flag before anything had set it.
func characterizeRef(l *trace.Loop, procs, cacheBytes, stride int, correctSparsity bool) *pattern.Profile {
	if stride < 1 {
		stride = 1
	}
	if procs < 1 {
		procs = 1
	}
	if cacheBytes < 1 {
		cacheBytes = 1
	}
	perElem := make([]int32, l.NumElems)
	sampledIters := 0
	sampledRefs := 0
	var distinctPerIterSum float64
	seen := make(map[int32]struct{}, 16)
	for i := 0; i < l.NumIters(); i += stride {
		sampledIters++
		refs := l.Iter(i)
		sampledRefs += len(refs)
		clear(seen)
		for _, r := range refs {
			perElem[r]++
			seen[r] = struct{}{}
		}
		distinctPerIterSum += float64(len(seen))
	}

	distinct := 0
	maxPerElem := 0
	ch := stats.NewHistogram()
	for _, c := range perElem {
		if c > 0 {
			distinct++
			ch.Add(int(c) * stride)
			if int(c)*stride > maxPerElem {
				maxPerElem = int(c) * stride
			}
		}
	}

	totalRefs := sampledRefs * stride
	numIters := l.NumIters()
	p := &pattern.Profile{
		LoopName:       l.Name,
		Procs:          procs,
		CacheBytes:     cacheBytes,
		NumElems:       l.NumElems,
		NumIters:       numIters,
		TotalRefs:      totalRefs,
		Distinct:       distinct,
		MaxRefsPerElem: maxPerElem,
		CH:             ch,
		Sampled:        stride > 1,
		SampleStride:   stride,
	}
	p.CHR = float64(totalRefs) / float64(procs*l.NumElems)
	if distinct > 0 {
		p.CON = float64(numIters) / float64(distinct)
	}
	if sampledIters > 0 {
		p.MO = distinctPerIterSum / float64(sampledIters)
	}
	p.SP = 100 * float64(distinct) / float64(l.NumElems)
	if p.Sampled && correctSparsity {
		p.SP = pattern.EstimateSparsityFromSample(l.NumElems, distinct, sampledRefs, totalRefs)
		if distinct > 0 {
			est := float64(l.NumElems) * p.SP / 100
			if est > 0 {
				p.CON = float64(numIters) / est
			}
		}
	}
	p.DIM = float64(l.ArrayBytes()) / float64(cacheBytes)
	return p
}

// churnSet is the benchmark's churn population (bench/workloads.go): the
// six MixedSet specs at scale 0.25, dimension jittered per round, one seed
// per pattern.
func churnSet(n int, seed int64) []*trace.Loop {
	specs := workloads.MixedSpecs()
	loops := make([]*trace.Loop, n)
	for i := range loops {
		spec := specs[i%len(specs)]
		spec.Dim += 64 * (i / len(specs))
		spec.Seed = seed<<20 + int64(i)
		loops[i] = workloads.Generate(fmt.Sprintf("churn-%04d", i), spec, 0.25)
	}
	return loops
}

// adversarialLoops are shapes chosen against the pass's special cases.
func adversarialLoops() []*trace.Loop {
	var loops []*trace.Loop

	empty := trace.NewLoop("no-iterations", 8)
	loops = append(loops, empty)

	gaps := trace.NewLoop("empty-iterations", 8)
	gaps.AddIter()
	gaps.AddIter(3)
	gaps.AddIter()
	gaps.AddIter()
	gaps.AddIter(3, 3, 5)
	loops = append(loops, gaps)

	dups := trace.NewLoop("duplicates", 16)
	dups.AddIter(1, 1, 1, 1)
	dups.AddIter(2, 1, 2, 1, 3)
	dups.AddIter(7, 8, 9, 7, 8, 9, 7)
	dups.AddIter(1)
	loops = append(loops, dups)

	// Iterations on both sides of the in-place threshold, with repeats
	// inside and across them, plus one far past it.
	rng := rand.New(rand.NewSource(11))
	long := trace.NewLoop("long-iterations", 97)
	for _, n := range []int{pattern.InPlaceIter - 1, pattern.InPlaceIter, pattern.InPlaceIter + 1, 3, 5 * pattern.InPlaceIter, 2, 400} {
		refs := make([]int32, n)
		for k := range refs {
			refs[k] = int32(rng.Intn(long.NumElems))
		}
		long.AddIter(refs...)
	}
	loops = append(loops, long)

	one := trace.NewLoop("one-element", 1)
	for i := 0; i < 50; i++ {
		one.AddIter(0, 0)
	}
	one.AddIter(make([]int32, 3*pattern.InPlaceIter)...)
	loops = append(loops, one)

	// One element sampled more often than the dense CH accumulator has
	// bins, next to elements that stay inside it.
	hot := trace.NewLoop("hot-spot", 64)
	for i := 0; i < 3*pattern.CHDense; i++ {
		hot.AddIter(0, int32(1+i%63))
	}
	loops = append(loops, hot)

	return loops
}

func requireSameProfile(t *testing.T, l *trace.Loop, procs, cacheBytes, stride int) {
	t.Helper()
	got := pattern.CharacterizeSampled(l, procs, cacheBytes, stride)
	want := characterizeRef(l, procs, cacheBytes, stride, true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s stride %d: profile differs from reference\n got  %+v CH=%v\n want %+v CH=%v",
			l.Name, stride, got, got.CH, want, want.CH)
	}
}

func TestCharacterizeMatchesReference(t *testing.T) {
	var loops []*trace.Loop
	loops = append(loops, workloads.MixedSet(0.25)...)
	loops = append(loops, workloads.HotKeySet(16, 0.5)...)
	loops = append(loops, churnSet(48, 1)...)
	loops = append(loops, adversarialLoops()...)
	for _, l := range loops {
		for _, stride := range []int{1, 3, 8, l.NumIters() + 1, 1 << 40} {
			requireSameProfile(t, l, 4, 512<<10, stride)
		}
		got := pattern.Characterize(l, 8, 32<<10)
		want := characterizeRef(l, 8, 32<<10, 1, true)
		want.SampleStride = 0 // the exact API does not report a stride
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s exact: profile differs from reference\n got  %+v\n want %+v", l.Name, got, want)
		}
	}
}

// TestCharacterizeDirtyScratch runs a small loop, a larger one and the
// small one again through the pooled scratch: if a call left a count, a
// CH bin or a touched entry behind, the later profiles would carry it.
func TestCharacterizeDirtyScratch(t *testing.T) {
	adv := adversarialLoops()
	small, large := workloads.MixedSet(0.05)[1], workloads.MixedSet(0.25)[2]
	seq := []*trace.Loop{small, large, small, adv[3], small, adv[5], large, adv[4], small}
	for round := 0; round < 3; round++ {
		for _, l := range seq {
			requireSameProfile(t, l, 4, 512<<10, 1)
			requireSameProfile(t, l, 4, 512<<10, 8)
		}
	}

	// Concurrent callers each draw their own scratch; under -race this
	// also proves no scratch is shared while in use.
	loops := append(workloads.MixedSet(0.1), adv...)
	want := make([]*pattern.Profile, len(loops))
	for i, l := range loops {
		want[i] = characterizeRef(l, 4, 512<<10, 8, true)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				i := (g + n) % len(loops)
				if got := pattern.CharacterizeSampled(loops[i], 4, 512<<10, 8); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s differs from reference", g, loops[i].Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCharacterizeWarmAllocs bounds what a warm call allocates: the
// Profile and its small CH histogram, nothing that scales with the array.
// A 64x larger array must not allocate more than the small one.
func TestCharacterizeWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
	}
	build := func(elems int) *trace.Loop {
		rng := rand.New(rand.NewSource(5))
		l := trace.NewLoop("allocs", elems)
		for i := 0; i < 4000; i++ {
			l.AddIter(int32(rng.Intn(elems)), int32(rng.Intn(elems)))
		}
		return l
	}
	// Both helpers make one unmeasured call first, which grows the pooled
	// scratch to the loop's size.
	measure := func(l *trace.Loop) (allocs, bytes float64) {
		call := func() { profileSink = pattern.CharacterizeSampled(l, 4, 512<<10, 8) }
		return testing.AllocsPerRun(200, call), bytesPerRun(200, call)
	}
	small := build(1 << 14)
	smallAllocs, smallBytes := measure(small)
	big := build(1 << 20)
	bigAllocs, bigBytes := measure(big)
	t.Logf("warm call: %d elems %.1f allocs %.0f B; %d elems %.1f allocs %.0f B",
		small.NumElems, smallAllocs, smallBytes, big.NumElems, bigAllocs, bigBytes)
	// Profile + Histogram + its map header and one bucket group.
	const maxAllocs, maxBytes = 8, 2048
	if bigAllocs > maxAllocs || smallAllocs > maxAllocs {
		t.Errorf("warm call allocates %.1f (small) / %.1f (big) objects, want <= %d", smallAllocs, bigAllocs, maxAllocs)
	}
	if bigBytes > maxBytes {
		t.Errorf("warm call on %d elements allocates %.0f B, want <= %d (a count array would be %d)",
			big.NumElems, bigBytes, maxBytes, 4*big.NumElems)
	}
	if bigBytes > smallBytes+256 {
		t.Errorf("allocation grows with NumElems: %.0f B at %d elems vs %.0f B at %d", bigBytes, big.NumElems, smallBytes, small.NumElems)
	}
}

// TestSampledSparsityOnRegimes holds the occupancy correction to the six
// MixedSet regimes at the engine's stride: where the sample misses
// referenced elements the corrected SP and CON must land within 20 % of
// exact (the skewed dense-hot regime, which breaks the estimator's
// uniform-contention model, is the 15 % case) and closer than the raw
// sampled occupancy does.
func TestSampledSparsityOnRegimes(t *testing.T) {
	for _, l := range workloads.MixedSet(0.25) {
		exact := pattern.Characterize(l, 4, 512<<10)
		sampled := pattern.CharacterizeSampled(l, 4, 512<<10, 8)
		raw := 100 * float64(sampled.Distinct) / float64(l.NumElems)
		errRaw := math.Abs(raw-exact.SP) / exact.SP
		errSP := math.Abs(sampled.SP-exact.SP) / exact.SP
		errCON := math.Abs(sampled.CON-exact.CON) / exact.CON
		t.Logf("%-16s exact SP %6.2f  raw sampled %6.2f (%.0f%% off)  corrected %6.2f (%.1f%% off)  CON %.3g vs %.3g",
			l.Name, exact.SP, raw, 100*errRaw, sampled.SP, 100*errSP, sampled.CON, exact.CON)
		if sampled.Distinct == exact.Distinct {
			continue // the sample saw every element; nothing to correct
		}
		if errSP > 0.20 || errSP >= errRaw {
			t.Errorf("%s: corrected SP %.4g vs exact %.4g (%.0f%% off; raw occupancy was %.0f%% off)", l.Name, sampled.SP, exact.SP, 100*errSP, 100*errRaw)
		}
		if errCON > 0.20 {
			t.Errorf("%s: corrected CON %.4g vs exact %.4g (%.0f%% off)", l.Name, sampled.CON, exact.CON, 100*errCON)
		}
	}
}

// TestRecommendationUnchangedBySparsityFix pins that switching the
// occupancy correction on moved no decision on the benchmark's
// populations: for every churn and hot-key pattern the scheme
// adapt.Recommend picks from the engine's stride-8 profile is the one it
// picked from the uncorrected profile.
func TestRecommendationUnchangedBySparsityFix(t *testing.T) {
	n := 1536
	if testing.Short() {
		n = 192
	}
	var loops []*trace.Loop
	for _, seed := range []int64{1, 2} {
		loops = append(loops, churnSet(n, seed)...)
	}
	loops = append(loops, workloads.HotKeySet(16, 0.5)...)
	picks := map[string]int{}
	for _, l := range loops {
		before := adapt.Recommend(characterizeRef(l, 4, 512<<10, 8, false)).Scheme
		after := adapt.Recommend(pattern.CharacterizeSampled(l, 4, 512<<10, 8)).Scheme
		if before != after {
			t.Errorf("%s: pick moved %s -> %s", l.Name, before, after)
		}
		picks[after]++
	}
	t.Logf("%d patterns, picks %v", len(loops), picks)
}

// profileSink keeps the measured calls' results alive.
var profileSink *pattern.Profile

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
