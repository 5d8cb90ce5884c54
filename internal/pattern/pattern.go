// Package pattern implements the memory-reference characterization of
// Section 4 of the paper. For a reduction loop it computes the paper's
// taxonomy of access-pattern metrics:
//
//   - CH:  histogram of "number of elements referenced by a certain number
//     of iterations"
//   - CHD: the CH distribution (normalized CH)
//   - CHR: ratio of the total number of references to the space needed for
//     per-processor replicated arrays (TotalRefs / (P * NumElems))
//   - CON: connectivity — iterations / distinct referenced elements
//   - MO:  mobility — proportional to the number of distinct elements an
//     iteration references (average distinct refs per iteration)
//   - SP:  sparsity — referenced elements / array dimension (reported in
//     percent, as in the paper's Figure 3)
//   - DIM: reduction array size / cache size
//
// Characterization can be exact (full trace) or sampled ("fast,
// approximative methods" run during an inspector phase). A Tracker supports
// the paper's incremental re-characterization: dynamic codes accumulate
// pattern changes and trigger re-characterization only when the change
// crosses a run-time threshold.
package pattern

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Profile holds the measured characteristics of one reduction loop on a
// machine with a given processor count and cache size.
type Profile struct {
	// LoopName identifies the characterized loop.
	LoopName string
	// Procs is the processor count CHR was computed for.
	Procs int
	// CacheBytes is the per-processor cache capacity DIM was computed for.
	CacheBytes int

	// NumElems is the reduction array dimension.
	NumElems int
	// NumIters is the number of loop iterations observed.
	NumIters int
	// TotalRefs is the total number of reduction references observed.
	TotalRefs int
	// Distinct is the number of distinct reduction elements referenced.
	Distinct int
	// MaxRefsPerElem is the largest number of references any single
	// element receives (the tail of CH; a proxy for contention hot spots).
	MaxRefsPerElem int

	// CH is the contention histogram: CH.Count(k) is the number of
	// elements referenced exactly k times.
	CH *stats.Histogram

	// CHR, CON, MO, SP, DIM are the paper's scalar metrics (SP in percent).
	CHR float64
	CON float64
	MO  float64
	SP  float64
	DIM float64

	// Sampled reports whether the profile was built from a sampled
	// inspector pass rather than the full trace.
	Sampled bool
	// SampleStride is the iteration stride used when Sampled.
	SampleStride int
}

// Characterize computes the exact profile of loop l for a machine with
// procs processors whose per-processor cache holds cacheBytes bytes.
func Characterize(l *trace.Loop, procs, cacheBytes int) *Profile {
	return characterize(l, procs, cacheBytes, 1)
}

// CharacterizeSampled computes an approximate profile by inspecting every
// stride-th iteration and scaling counts back up. It models the paper's
// fast inspector-phase characterization. stride must be >= 1.
func CharacterizeSampled(l *trace.Loop, procs, cacheBytes, stride int) *Profile {
	if stride < 1 {
		stride = 1
	}
	p := characterize(l, procs, cacheBytes, stride)
	p.SampleStride = stride
	return p
}

// inPlaceIter is the longest iteration whose distinct references are
// counted by comparing its own subscripts with each other. The paper's
// loops reference 1-10 elements per iteration (Figure 3's MO column), so
// this covers them; a longer iteration marks the count array instead,
// which stays linear in its length.
const inPlaceIter = 16

// iterMark is the high bit of a per-element count, set while the element
// has already been seen in the long iteration being walked. Sampled
// references are indexed by int32 offsets, so a real count never reaches it.
const iterMark = 1 << 31

// chDense is how many CH bins the pass accumulates in a flat array before
// they are materialised; an element sampled more often than that (a hot
// spot) goes to the histogram directly.
const chDense = 256

// scratch is the inspector pass's working storage, pooled across calls.
// Invariant between calls: every counts and dense entry is zero and
// touched is empty. The pass restores it by walking touched — the elements
// it actually incremented — so neither the set-up nor the clean-up of a
// call costs O(NumElems); a scratch whose pass panicked (an out-of-range
// subscript) is never returned to the pool.
type scratch struct {
	// counts[e] is the number of sampled references to element e.
	counts []uint32
	// touched lists each element with a non-zero count once, in order of
	// first reference.
	touched []int32
	// dense[c] is the number of elements sampled exactly c times.
	dense [chDense]int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// characterize is the inspector pass: O(sampled references) time, no map
// operation per reference, and no allocation that grows with NumElems once
// a pooled scratch of that size exists. What it costs beyond the trace read
// is the scattered access to the count array (one cache miss per first
// touch of a line on a cold pattern).
func characterize(l *trace.Loop, procs, cacheBytes, stride int) *Profile {
	if procs < 1 {
		procs = 1
	}
	if cacheBytes < 1 {
		cacheBytes = 1
	}
	sc := scratchPool.Get().(*scratch)
	if cap(sc.counts) < l.NumElems {
		sc.counts = make([]uint32, l.NumElems)
	}
	// Sliced to the array dimension so an out-of-range subscript faults
	// here rather than landing in a larger pooled array's tail.
	counts := sc.counts[:l.NumElems]
	touched := sc.touched

	offsets, refs := l.Flat()
	numIters := l.NumIters()
	sampledIters := 0
	sampledRefs := 0
	distinctPerIterSum := 0
	for i := 0; i < numIters; i += stride {
		sampledIters++
		it := refs[offsets[i]:offsets[i+1]]
		sampledRefs += len(it)
		if len(it) > inPlaceIter {
			for _, r := range it {
				c := counts[r]
				if c&iterMark == 0 {
					distinctPerIterSum++
					if c == 0 {
						touched = append(touched, r)
					}
					c |= iterMark
				}
				counts[r] = c + 1
			}
			for _, r := range it {
				counts[r] &^= iterMark
			}
			continue
		}
		for k, r := range it {
			c := counts[r]
			counts[r] = c + 1
			if c == 0 {
				touched = append(touched, r)
				distinctPerIterSum++
				continue
			}
			// Only an element already counted can repeat an earlier
			// subscript of this iteration.
			if !slices.Contains(it[:k], r) {
				distinctPerIterSum++
			}
		}
	}

	// Fold the per-element counts into CH and hand the scratch back zeroed.
	// Sampled counts are scaled to full-trace magnitude so the CH bins are
	// comparable across sampled and exact profiles.
	distinct := len(touched)
	maxCount := 0
	ch := stats.NewHistogram()
	for _, r := range touched {
		c := int(counts[r])
		counts[r] = 0
		if c > maxCount {
			maxCount = c
		}
		if c < chDense {
			sc.dense[c]++
		} else {
			ch.AddN(c*stride, 1)
		}
	}
	for c := 1; c <= maxCount && c < chDense; c++ {
		if n := sc.dense[c]; n != 0 {
			ch.AddN(c*stride, int(n))
			sc.dense[c] = 0
		}
	}
	sc.touched = touched[:0]
	scratchPool.Put(sc)

	totalRefs := sampledRefs * stride
	p := &Profile{
		LoopName:       l.Name,
		Procs:          procs,
		CacheBytes:     cacheBytes,
		NumElems:       l.NumElems,
		NumIters:       numIters,
		TotalRefs:      totalRefs,
		Distinct:       distinct,
		MaxRefsPerElem: maxCount * stride,
		CH:             ch,
		Sampled:        stride > 1,
	}
	p.CHR = float64(totalRefs) / float64(procs*l.NumElems)
	if distinct > 0 {
		p.CON = float64(numIters) / float64(distinct)
	}
	if sampledIters > 0 {
		p.MO = float64(distinctPerIterSum) / float64(sampledIters)
	}
	p.SP = 100 * float64(distinct) / float64(l.NumElems)
	if p.Sampled {
		// A sampled pass underestimates the distinct-element count; apply
		// the standard occupancy correction for sampling without
		// replacement approximated as Poisson arrivals.
		p.SP = estimateSparsityFromSample(l.NumElems, distinct, sampledRefs, totalRefs)
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

// estimateSparsityFromSample corrects the distinct-element count observed
// in a sampled inspector pass. Under a uniform-contention model, if the
// full trace has R references over d hot elements, a sample with r < R
// references observes each hot element with probability 1-exp(-r/d·…);
// inverting the occupancy formula recovers d.
func estimateSparsityFromSample(numElems, distinctSeen, sampleRefs, totalRefs int) float64 {
	if distinctSeen == 0 || sampleRefs == 0 {
		return 0
	}
	frac := float64(sampleRefs) / float64(totalRefs)
	if frac >= 0.999 {
		return 100 * float64(distinctSeen) / float64(numElems)
	}
	// Solve distinctSeen = d * (1 - exp(-refsPerElem*frac)) where
	// refsPerElem = totalRefs/d, by fixed-point iteration on d.
	d := float64(distinctSeen)
	for iter := 0; iter < 50; iter++ {
		rate := float64(totalRefs) / d * frac
		cov := 1 - math.Exp(-rate)
		if cov < 1e-9 {
			break
		}
		next := float64(distinctSeen) / cov
		if next > float64(numElems) {
			next = float64(numElems)
		}
		if math.Abs(next-d) < 0.5 {
			d = next
			break
		}
		d = next
	}
	return 100 * d / float64(numElems)
}

// CHD returns the CH distribution: the fraction of referenced elements in
// each contention bin, keyed by bin, in ascending bin order.
func (p *Profile) CHD() (bins []int, frac []float64) {
	total := p.CH.Total()
	if total == 0 {
		return nil, nil
	}
	bins = p.CH.Bins()
	frac = make([]float64, len(bins))
	for i, b := range bins {
		frac[i] = float64(p.CH.Count(b)) / float64(total)
	}
	return bins, frac
}

// HighContentionFraction returns the fraction of referenced elements whose
// reference count is at least minRefs. The set of high-contention CHRs is
// the paper's HCHR; this scalar summarizes it.
func (p *Profile) HighContentionFraction(minRefs int) float64 {
	total := p.CH.Total()
	if total == 0 {
		return 0
	}
	n := 0
	for _, b := range p.CH.Bins() {
		if b >= minRefs {
			n += p.CH.Count(b)
		}
	}
	return float64(n) / float64(total)
}

// String renders the scalar metrics in the order of the paper's Figure 3
// columns (MO, DIM as element count, SP, CON, CHR).
func (p *Profile) String() string {
	return fmt.Sprintf("%s: MO=%.2f INPUT=%d SP=%.3g%% CON=%.3g CHR=%.3g DIM=%.3g",
		p.LoopName, p.MO, p.NumElems, p.SP, p.CON, p.CHR, p.DIM)
}

// Distance returns a scale-free measure of how different two profiles are,
// as the maximum relative change across the scalar metrics. It is the
// quantity the paper's dynamic codes compare against a run-time threshold
// to decide whether a re-characterization is needed.
func Distance(a, b *Profile) float64 {
	rel := func(x, y float64) float64 {
		den := math.Max(math.Abs(x), math.Abs(y))
		if den == 0 {
			return 0
		}
		return math.Abs(x-y) / den
	}
	d := rel(a.CHR, b.CHR)
	if v := rel(a.CON, b.CON); v > d {
		d = v
	}
	if v := rel(a.MO, b.MO); v > d {
		d = v
	}
	if v := rel(a.SP, b.SP); v > d {
		d = v
	}
	if v := rel(a.DIM, b.DIM); v > d {
		d = v
	}
	return d
}

// Tracker implements incremental re-characterization for dynamic codes:
// changes in the access pattern are collected incrementally, and when they
// are significant enough (a threshold tested at run time) the Tracker
// reports that a re-characterization is needed.
type Tracker struct {
	// Threshold is the relative-change level above which Update reports
	// that the pattern must be re-characterized. The zero value gets the
	// paper-motivated default of 0.25 on first use.
	Threshold float64

	baseline *Profile
	checks   int
	triggers int
}

// Update offers a freshly measured profile. It returns true when the
// accumulated change relative to the current baseline exceeds the
// threshold, in which case the new profile becomes the baseline.
func (t *Tracker) Update(p *Profile) bool {
	if t.Threshold == 0 {
		t.Threshold = 0.25
	}
	t.checks++
	if t.baseline == nil {
		t.baseline = p
		t.triggers++
		return true
	}
	if Distance(t.baseline, p) > t.Threshold {
		t.baseline = p
		t.triggers++
		return true
	}
	return false
}

// Baseline returns the profile the tracker currently considers current.
func (t *Tracker) Baseline() *Profile { return t.baseline }

// Stats returns how many updates were offered and how many triggered
// re-characterization.
func (t *Tracker) Stats() (checks, triggers int) { return t.checks, t.triggers }
