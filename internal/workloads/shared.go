package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// SharedSubrangeStream is a deterministic job stream whose members share
// most of their subscript stream: every member references the same base
// trace except inside one private window — one eighth of the reference
// positions, at a window offset cycling with the member index. It is the
// traffic shape of a solver family iterating one mesh where each variant
// perturbs a different boundary region: per-member direct execution
// re-reduces the identical interior over and over, while a segment
// decomposition (pattern.AnalyzeSegments) against cached segment sums
// recomputes only the windows that differ from the last member run.
//
// As in DriftStream, all members share one trace.Fingerprint — the
// private-window rewrite preserves the subscripts at the fingerprint's
// sampled stride positions — so every member lands on one decision-cache
// entry, and a member submitted after another reuses the entry's
// verified sums of the windows the two share.
type SharedSubrangeStream struct {
	// Members are the distinct loops; Members[m]'s private window is
	// window m % sharedWindows of the reference stream.
	Members []*trace.Loop
	// Stream is the job sequence: length jobs round-robin over Members,
	// so consecutive jobs are distinct members.
	Stream []*trace.Loop
}

const (
	// sharedWindows divides the reference stream into this many equal
	// windows, one private per member. It matches the segment count
	// reduction.DefaultSegIters targets at 8 processors, and every
	// larger power-of-two segment count divides evenly into it, so
	// private windows always align with segment boundaries.
	sharedWindows = 8
	// sharedRefsPerIter is the reference count per iteration.
	sharedRefsPerIter = 8
	// sharedAnchors is the number of fingerprint anchor elements.
	sharedAnchors = 16
)

// NewSharedSubrangeStream builds a shared-subrange workload: members
// distinct loops sharing all but one window each, a stream of length jobs
// round-robin over them, scale multiplying the trace size, and a seed
// making everything reproducible. The construction panics if a member
// fails to preserve the shared fingerprint — that would silently put the
// members on distinct cache entries that share nothing.
func NewSharedSubrangeStream(members, length int, scale float64, seed int64) *SharedSubrangeStream {
	if members < 1 || length < 0 {
		panic(fmt.Sprintf("workloads: SharedSubrangeStream needs members >= 1 and length >= 0, got %d/%d", members, length))
	}
	if scale <= 0 {
		panic(fmt.Sprintf("workloads: scale must be positive, got %g", scale))
	}
	dim := scaleInt(2048, scale, 256)
	iters := scaleInt(32768, scale, 1024)
	total := iters * sharedRefsPerIter

	// The fingerprint samples refs at this stride (trace.Fingerprint's
	// samples constant); those positions hold anchors in every member.
	stride := total / 256
	if stride < 1 {
		stride = 1
	}
	anchors := make([]int32, sharedAnchors)
	for j := range anchors {
		anchors[j] = int32(j * dim / sharedAnchors)
	}

	// The base reference stream all members start from.
	rng := rand.New(rand.NewSource(seed))
	base := make([]int32, total)
	for pos := range base {
		if pos%stride == 0 {
			base[pos] = anchors[(pos/stride)%sharedAnchors]
		} else {
			base[pos] = int32(rng.Intn(dim))
		}
	}

	ss := &SharedSubrangeStream{Members: make([]*trace.Loop, members)}
	winLen := total / sharedWindows
	for m := range ss.Members {
		refs := base
		if m > 0 {
			// Member 0 keeps the base verbatim, so its window stays the
			// shared version other members' decompositions can reuse.
			refs = append([]int32(nil), base...)
			mrng := rand.New(rand.NewSource(seed + 1_000_003*int64(m)))
			lo := (m % sharedWindows) * winLen
			for pos := lo; pos < lo+winLen; pos++ {
				if pos%stride != 0 {
					refs[pos] = int32(mrng.Intn(dim))
				}
			}
		}
		l := trace.NewLoop(fmt.Sprintf("shared-%02d", m), dim)
		l.WorkPerIter = 4
		for i := 0; i < iters; i++ {
			l.AddIter(refs[i*sharedRefsPerIter : (i+1)*sharedRefsPerIter]...)
		}
		ss.Members[m] = l
		if m > 0 {
			if got, want := l.Fingerprint(), ss.Members[0].Fingerprint(); got != want {
				panic(fmt.Sprintf("workloads: shared member %d broke the fingerprint (%x != %x)", m, got, want))
			}
		}
	}
	ss.Stream = make([]*trace.Loop, length)
	for i := range ss.Stream {
		ss.Stream[i] = ss.Members[i%members]
	}
	return ss
}
