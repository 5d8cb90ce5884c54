package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/reduction"
	"repro/internal/trace"
)

// deltaRefsPerIter is the reference count per iteration of the base
// loop. Together with the iteration-to-dimension ratio below it fixes
// the stream's reference density at 128 references per element — the
// long-lived-mesh regime (many timesteps of work over one modest
// array) where re-shipping and fully re-reducing the loop on every
// update is most wasteful, i.e. the regime sessions exist for.
const deltaRefsPerIter = 8

// DeltaStream is the streaming-session traffic shape: one long-lived
// reduction loop registered once, then a sequence of small subscript
// update batches — the access-pattern churn of an application whose
// iteration space is stable but whose references drift a little every
// timestep (a moldyn pairlist absorbing particle motion between full
// rebuilds, a mesh smoother relocating a few nodes per sweep). Each
// batch redirects a handful of flat reference positions to new
// elements; everything else is untouched, which is exactly the sharing
// across time that reduction.DeltaState converts into two exact updates
// of the resident result per redirected reference instead of
// re-reducing the loop.
//
// The stream is deterministic (seeded), so a benchmark, a load test and
// a shadow verifier can all regenerate the identical base loop and
// batches and agree on the expected reduction at every step.
type DeltaStream struct {
	// Base is the loop a session registers at OPEN_SESSION. Consumers
	// must treat it as immutable and Clone before mutating (MirrorAt
	// does).
	Base *trace.Loop
	// Batches are the per-step updates, in submission order. Each batch
	// has strictly increasing positions and distinct-from-current
	// references, matching the wire encoding's invariants.
	Batches [][]reduction.RefDelta
}

// NewDeltaStream builds a session workload: batches update batches of
// batchSize deltas each over a base loop whose size scales with scale,
// all reproducible from seed. Positions are drawn uniformly over the
// flat reference stream and element targets uniformly over the array,
// so successive batches scatter across the iterations the way
// uncoordinated particle motion does — the worst case for any scheme
// that hopes updates cluster.
func NewDeltaStream(batches, batchSize int, scale float64, seed int64) *DeltaStream {
	if batches < 0 || batchSize < 1 {
		panic(fmt.Sprintf("workloads: DeltaStream needs batches >= 0 and batchSize >= 1, got %d/%d", batches, batchSize))
	}
	if scale <= 0 {
		panic(fmt.Sprintf("workloads: scale must be positive, got %g", scale))
	}
	dim := scaleInt(2048, scale, 256)
	iters := scaleInt(32768, scale, 4096)
	total := iters * deltaRefsPerIter
	if batchSize > total {
		batchSize = total
	}

	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop("delta-base", dim)
	l.WorkPerIter = 6
	refs := make([]int32, deltaRefsPerIter)
	for i := 0; i < iters; i++ {
		for j := range refs {
			refs[j] = int32(rng.Intn(dim))
		}
		l.AddIter(refs...)
	}

	ds := &DeltaStream{Base: l, Batches: make([][]reduction.RefDelta, batches)}
	for b := range ds.Batches {
		// Distinct positions, sorted ascending — the order AppendDelta
		// requires and DecodeDelta enforces. References are drawn after
		// the sort so the batch is a pure function of the seed (drawing
		// during map iteration would not be).
		seen := make(map[int32]bool, batchSize)
		pos := make([]int32, 0, batchSize)
		for len(pos) < batchSize {
			p := int32(rng.Intn(total))
			if !seen[p] {
				seen[p] = true
				pos = append(pos, p)
			}
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		batch := make([]reduction.RefDelta, batchSize)
		for i, p := range pos {
			batch[i] = reduction.RefDelta{Pos: p, Ref: int32(rng.Intn(dim))}
		}
		ds.Batches[b] = batch
	}
	return ds
}

// ApplyDeltas applies one update batch to l in place — the mirror-side
// counterpart of what SUBMIT_DELTA does to the server's session state.
// A shadow verifier keeps a private clone of the base loop, applies
// each batch as it is submitted, and checks the session's rolling
// result against the mirror's from-scratch reduction.
func ApplyDeltas(l *trace.Loop, batch []reduction.RefDelta) {
	_, refs := l.Flat()
	for _, d := range batch {
		refs[d.Pos] = d.Ref
	}
}

// MirrorAt returns a fresh clone of the base loop with the first step
// batches applied: the loop a session holds after its step'th
// SUBMIT_DELTA, rebuilt from scratch. This is the oracle side of the
// property the session tests pin — a rolling session result must be
// bit-for-bit equal to a fresh session opened over MirrorAt(step).
func (ds *DeltaStream) MirrorAt(step int) *trace.Loop {
	if step < 0 || step > len(ds.Batches) {
		panic(fmt.Sprintf("workloads: MirrorAt(%d) outside [0, %d]", step, len(ds.Batches)))
	}
	m := ds.Base.Clone()
	for _, b := range ds.Batches[:step] {
		ApplyDeltas(m, b)
	}
	return m
}
