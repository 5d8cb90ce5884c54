// Package workloads synthesizes the reduction loops of the paper's
// applications. The originals (Irreg, Nbf/GROMOS, Moldyn, Spark98, Charmm,
// Spice, Euler/HPF-2, Equake/SPECfp2000, Vml/Sparse BLAS) are proprietary
// or unavailable FORTRAN/C codes; what the paper's experiments actually
// depend on is each loop's reduction reference pattern, which the paper
// publishes in full (Figure 3's MO/DIM/SP/CON/CHR columns and Table 2's
// per-loop characteristics). The generators here reproduce those published
// characteristics deterministically (seeded) — the substitution this
// reproduction makes for the original inputs.
package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
)

// PatternSpec parameterizes a synthetic reduction loop by the paper's own
// metrics. Dim, SPPercent, CHR and MO are targets the generated loop meets
// (measured values land within a few percent); CON then follows from them
// rather than being independently controllable — the paper's five columns
// over-determine a trace, and the decision algorithm consumes SP/CHR/MO/DIM.
type PatternSpec struct {
	// Dim is the reduction array dimension (Figure 3's INPUT column).
	Dim int
	// SPPercent is the target sparsity: percent of elements referenced.
	SPPercent float64
	// CHR is the target contention ratio for CHRProcs processors.
	CHR float64
	// CHRProcs is the processor count CHR is defined against (8 in
	// Figure 3, the machine the paper measured on).
	CHRProcs int
	// MO is the number of reduction references per iteration (mobility).
	MO int
	// Locality is the probability that an iteration's references cluster
	// near its position in the iteration space (mesh/pairlist locality).
	// High locality makes a block-scheduled partition mostly exclusive
	// per processor.
	Locality float64
	// Skew concentrates references on low-index hot elements: 0 gives a
	// uniform draw, larger values hotter hot spots (wider CH histogram).
	Skew float64
	// Work is the non-reduction instruction count per iteration.
	Work float64
	// DataRefs is the non-reduction data reference count per iteration
	// (streamed through the caches by the CC-NUMA simulator).
	DataRefs float64
	// Invocations is how many times the program executes this loop with
	// the same pattern (amortizes inspector-based schemes); 0 means 1.
	Invocations int
	// RunLength is the length of the contiguous element runs the touched
	// set is made of. Real touched sets are clustered — mesh node
	// neighborhoods, matrix rows, atom groups — so referenced elements
	// share cache lines, which is what exposes false sharing between
	// processors' in-place updates. 0 means the default of 32.
	RunLength int
	// Seed makes the trace reproducible.
	Seed int64
}

// Generate builds a loop matching the spec. scale multiplies the array
// dimension, touched-set size and reference count together, preserving the
// dimensionless metrics (SP, CHR, MO) exactly; callers that also scale the
// cache geometry preserve DIM too (this is how tests run miniature but
// regime-faithful instances).
func Generate(name string, spec PatternSpec, scale float64) *trace.Loop {
	if scale <= 0 {
		panic(fmt.Sprintf("workloads: scale must be positive, got %g", scale))
	}
	if spec.CHRProcs == 0 {
		spec.CHRProcs = 8
	}
	dim := scaleInt(spec.Dim, scale, 16)
	distinct := scaleInt(int(float64(spec.Dim)*spec.SPPercent/100), scale, 1)
	if distinct > dim {
		distinct = dim
	}
	totalRefs := int(spec.CHR * float64(spec.CHRProcs) * float64(dim))
	mo := spec.MO
	if mo < 1 {
		mo = 1
	}
	iters := totalRefs / mo
	if iters < 1 {
		iters = 1
	}

	rng := rand.New(rand.NewSource(spec.Seed))

	// Hot set: `distinct` element indices grouped into contiguous runs of
	// RunLength, with the runs themselves spread evenly over the array
	// (jittered). Ascending order keeps nearby hot positions nearby in
	// memory (mesh-like numbering after partitioning), and runs put
	// several touched elements on each cache line, as real touched sets
	// do.
	runLen := spec.RunLength
	if runLen <= 0 {
		runLen = 32
	}
	if runLen > distinct {
		runLen = distinct
	}
	hot := make([]int32, 0, distinct)
	numRuns := (distinct + runLen - 1) / runLen
	runStride := float64(dim) / float64(numRuns)
	for r := 0; r < numRuns; r++ {
		n := runLen
		if rem := distinct - len(hot); n > rem {
			n = rem
		}
		lo := int(float64(r) * runStride)
		span := int(runStride) - n
		if span > 0 {
			lo += rng.Intn(span)
		}
		if lo+n > dim {
			lo = dim - n
		}
		for j := 0; j < n; j++ {
			hot = append(hot, int32(lo+j))
		}
	}

	l := trace.NewLoop(name, dim)
	l.WorkPerIter = spec.Work
	l.DataRefsPerIter = spec.DataRefs
	l.Invocations = spec.Invocations
	refs := make([]int32, mo)
	for i := 0; i < iters; i++ {
		// Iteration i's "home" region in the hot set tracks its position
		// in the iteration space, so block scheduling gives each
		// processor a mostly-private element region.
		home := int(float64(i) / float64(iters) * float64(distinct))
		for k := 0; k < mo; k++ {
			var pos int
			if rng.Float64() < spec.Locality {
				// Cluster near home with short-range jitter.
				span := distinct / 64
				if span < 4 {
					span = 4
				}
				pos = home + rng.Intn(2*span+1) - span
			} else {
				// Global draw, optionally skewed toward low indices.
				u := rng.Float64()
				if spec.Skew > 0 {
					u = math.Pow(u, 1+spec.Skew)
				}
				pos = int(u * float64(distinct))
			}
			if pos < 0 {
				pos = 0
			}
			if pos >= distinct {
				pos = distinct - 1
			}
			refs[k] = hot[pos]
		}
		l.AddIter(refs...)
	}
	return l
}

func scaleInt(v int, scale float64, minV int) int {
	s := int(float64(v) * scale)
	if s < minV {
		s = minV
	}
	return s
}
