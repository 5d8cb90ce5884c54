package pattern

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// Segment analysis is the inspection pass behind the engine's reduction
// simplification (the polyhedral-simplification idea applied online): a
// batch of same-fingerprint loops is split into fixed-width iteration
// segments, and members whose subscript content is identical over a
// segment can share that segment's partial sum. The analysis produces
// exactly what the planner (reduction.BuildSegPlan) needs: a canonical
// owner per (member, segment) cell, the resulting unique-task count, and
// the scalar structure signals (overlap fraction, constant-run fraction,
// operator idempotence) the adapt decision boundary weighs against the
// segment-combine cost.
//
// Content equality is what makes sharing sound: trace.Value mixes the
// absolute iteration index and within-iteration position into every
// contribution, so two members produce bit-identical partial sums over a
// segment exactly when their subscript streams agree at the same
// positions — shared prefixes, nested windows and staircase overlaps all
// qualify; merely referencing the same elements in a different order does
// not, and the analysis correctly refuses to share it.

// SegmentAnalysis is the result of analyzing one batch's members over a
// common segment decomposition of the iteration space.
type SegmentAnalysis struct {
	// SegIters is the segment width in iterations; the last segment may
	// be shorter. Segments is the resulting segment count and Members the
	// number of analyzed loops.
	SegIters int
	Segments int
	Members  int

	// OwnerOf[m][s] is the lowest member index whose segment s subscript
	// content is verified identical to member m's — the canonical owner
	// whose partial sum member m can combine. OwnerOf[m][s] == m means
	// member m computes that segment itself.
	OwnerOf [][]int

	// Hashes[m][s] is the sampled content hash the ownership search used;
	// the planner reuses it to probe the engine's cached segment sums.
	Hashes [][]uint64

	// Unique is the number of distinct (owner == member) cells — the
	// partial sums a simplified execution actually computes. SharedSegs
	// counts the segment positions where at least two members share an
	// owner.
	Unique     int
	SharedSegs int

	// OverlapFrac is the fraction of (member, segment) cells served by
	// another member's computation: 1 - Unique/(Members*Segments). Zero
	// means fully disjoint content; (Members-1)/Members means every
	// member shares every segment.
	OverlapFrac float64

	// ConstRunFrac is the fraction of the leader's references that repeat
	// the immediately preceding subscript — the constant-run signal,
	// estimated from evenly spread sample blocks on long streams. Long
	// runs keep the direct loops' gathers cache-resident, which shrinks
	// the advantage of sharing their work.
	ConstRunFrac float64

	// Idempotent reports an idempotent reduction operator (max/min), for
	// which re-applying a shared segment is harmless — duplicate-tolerant
	// combining needs no exactly-once bookkeeping.
	Idempotent bool
}

// segHashSamples bounds the per-segment hashing cost: at most
// ~64 sampled references per segment feed the hash; candidate sharing is
// then verified by full content comparison, so sampling can only cost a
// missed sharing opportunity, never a wrong one.
const segHashSamples = 64

// constRunSampleBlocks / constRunBlockLen bound the constant-run scan:
// streams longer than their product are sampled in evenly spread blocks.
const (
	constRunSampleBlocks = 32
	constRunBlockLen     = 512
)

// AnalyzeSegments builds the segment decomposition of a batch's members
// on one goroutine; AnalyzeSegmentsProcs spreads the work.
func AnalyzeSegments(members []*trace.Loop, segIters int) (*SegmentAnalysis, error) {
	return AnalyzeSegmentsProcs(members, segIters, 1)
}

// AnalyzeSegmentsProcs builds the segment decomposition of a batch's
// members on up to procs goroutines. Hashing, content verification and
// the ownership search are independent per segment, so the analysis
// sweep scales with the executing processors instead of serializing in
// front of them. All members must share iteration geometry: the same
// NumElems, Op and identical offsets arrays (fingerprint-equal loops
// almost surely do; the check is cheap and makes the contract explicit).
// segIters must be positive.
func AnalyzeSegmentsProcs(members []*trace.Loop, segIters, procs int) (*SegmentAnalysis, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("pattern: AnalyzeSegments needs at least one member")
	}
	if segIters < 1 {
		return nil, fmt.Errorf("pattern: non-positive segment width %d", segIters)
	}
	leader := members[0]
	iters := leader.NumIters()
	if iters == 0 {
		return nil, fmt.Errorf("pattern: loop %q has no iterations", leader.Name)
	}
	leadOffs, leadRefs := leader.Flat()
	for _, m := range members[1:] {
		if m.NumElems != leader.NumElems || m.Op != leader.Op {
			return nil, fmt.Errorf("pattern: member %q geometry differs from leader %q", m.Name, leader.Name)
		}
		offs, _ := m.Flat()
		if !SameRefs(leadOffs, offs) {
			return nil, fmt.Errorf("pattern: member %q iteration shape differs from leader %q", m.Name, leader.Name)
		}
	}

	segs := (iters + segIters - 1) / segIters
	a := &SegmentAnalysis{
		SegIters:   segIters,
		Segments:   segs,
		Members:    len(members),
		OwnerOf:    make([][]int, len(members)),
		Hashes:     make([][]uint64, len(members)),
		Idempotent: leader.Op == trace.OpMax || leader.Op == trace.OpMin,
	}
	for m := range members {
		a.OwnerOf[m] = make([]int, segs)
		a.Hashes[m] = make([]uint64, segs)
	}
	if procs < 1 {
		procs = 1
	}
	if procs > segs {
		procs = segs
	}

	// Hashing and the ownership search: for each cell, the owner is the
	// lowest earlier member with the same hash and verified-equal
	// content. The verification compares the raw subscript slices, so a
	// hash collision degrades to a missed share, never to a wrong one.
	// Segments are independent of each other — each worker owns a stripe
	// of segment positions end to end.
	shared := make([]bool, segs)
	unique := make([]int, procs)
	parallelFor(procs, func(pr int) {
		for s := pr; s < segs; s += procs {
			lo, hi := segRefRange(leadOffs, s, segIters, iters)
			for m, l := range members {
				_, refs := l.Flat()
				a.Hashes[m][s] = HashRefs(refs[lo:hi])
				owner := m
				for o := 0; o < m; o++ {
					if a.Hashes[o][s] != a.Hashes[m][s] || a.OwnerOf[o][s] != o {
						continue
					}
					_, orefs := members[o].Flat()
					if SameRefs(refs[lo:hi], orefs[lo:hi]) {
						owner = o
						break
					}
				}
				a.OwnerOf[m][s] = owner
				if owner == m {
					unique[pr]++
				} else {
					shared[s] = true
				}
			}
		}
	})
	for _, u := range unique {
		a.Unique += u
	}
	for _, sh := range shared {
		if sh {
			a.SharedSegs++
		}
	}
	cells := len(members) * segs
	a.OverlapFrac = 1 - float64(a.Unique)/float64(cells)

	// The constant-run signal steers the decision boundary's cost model;
	// it is a statistic, not a correctness input, so long streams are
	// sampled in evenly spread blocks rather than paying a second full
	// pass over the subscripts.
	run, pairs := 0, 0
	total := len(leadRefs)
	if total <= constRunSampleBlocks*constRunBlockLen {
		for i := 1; i < total; i++ {
			if leadRefs[i] == leadRefs[i-1] {
				run++
			}
		}
		pairs = total - 1
	} else {
		stride := total / constRunSampleBlocks
		for blk := 0; blk < constRunSampleBlocks; blk++ {
			lo := blk * stride
			hi := lo + constRunBlockLen
			if hi > total {
				hi = total
			}
			for i := lo + 1; i < hi; i++ {
				if leadRefs[i] == leadRefs[i-1] {
					run++
				}
			}
			pairs += hi - lo - 1
		}
	}
	if pairs > 0 {
		a.ConstRunFrac = float64(run) / float64(pairs)
	}
	return a, nil
}

// parallelFor runs fn(0..procs-1) concurrently and waits; procs 1 stays on
// the calling goroutine.
func parallelFor(procs int, fn func(pr int)) {
	if procs <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for pr := 1; pr < procs; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			fn(pr)
		}(pr)
	}
	fn(0)
	wg.Wait()
}

// segRefRange returns the [lo, hi) reference range of segment s under the
// common offsets array.
func segRefRange(offs []int32, s, segIters, iters int) (lo, hi int) {
	itLo := s * segIters
	itHi := itLo + segIters
	if itHi > iters {
		itHi = iters
	}
	return int(offs[itLo]), int(offs[itHi])
}

// HashRefs is the sampled content hash of one segment's subscript slice
// — the value SegmentAnalysis.Hashes holds, exported so a cached segment
// sum can be probed without a full analysis. It reads every
// (len(refs)/64)-th reference from 0 (stride at least 1) into a
// trace.SampleHash seeded with the length; positions are mixed in, so a
// shifted copy of the same values hashes differently.
func HashRefs(refs []int32) uint64 {
	h := trace.NewSampleHash(uint64(len(refs)))
	h.Refs(refs, len(refs)/segHashSamples)
	return h.Sum()
}

// SameRefs reports element-wise equality of two subscript (or offsets)
// slices with a pointer fast path. The planner uses it to verify cached
// segment sums against the submitted content before reusing them, so it
// runs over every shared segment of every batch: the main loop folds
// eight XORs into one branch per block, keeping the equal case (the
// overwhelmingly common one) free of per-element branches.
func SameRefs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	i := 0
	for ; i+8 <= len(a); i += 8 {
		av, bv := a[i:i+8], b[i:i+8]
		d := (av[0] ^ bv[0]) | (av[1] ^ bv[1]) | (av[2] ^ bv[2]) | (av[3] ^ bv[3]) |
			(av[4] ^ bv[4]) | (av[5] ^ bv[5]) | (av[6] ^ bv[6]) | (av[7] ^ bv[7])
		if d != 0 {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
