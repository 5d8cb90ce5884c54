// Package trace defines the canonical representation of a reduction loop
// used throughout the SmartApps reproduction.
//
// The paper studies loops of the form
//
//	for i = 0 .. N-1:
//	    w[x[i]] += expression
//
// where w is the reduction array and x[i] is an input-dependent subscript.
// A trace.Loop captures exactly the information such a loop exposes at run
// time: the reduction array size, the per-iteration list of referenced
// reduction elements, the amount of non-reduction work per iteration, and
// the reduction operator. All software schemes (package reduction), the
// pattern characterizer (package pattern), the virtual-time harness
// (package vtime) and the CC-NUMA simulator (package machine) consume this
// single representation, which is how the "compiler" stage of a SmartApp
// hands a recognized reduction to the runtime.
package trace

import (
	"fmt"
	"math"
)

// Op identifies an associative and commutative reduction operator. The
// paper's applications use floating-point addition exclusively; the other
// operators exist because PCLR's directory execution units are specified to
// support an FP adder and comparator (min/max) plus an integer ALU.
type Op int

const (
	// OpAdd is floating-point addition (neutral element 0).
	OpAdd Op = iota
	// OpMul is floating-point multiplication (neutral element 1).
	OpMul
	// OpMax is floating-point maximum (neutral element -Inf).
	OpMax
	// OpMin is floating-point minimum (neutral element +Inf).
	OpMin
)

// String returns the operator's conventional name.
func (op Op) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpMul:
		return "mul"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Neutral returns the operator's neutral element — the value PCLR's
// directory controller uses to fill reduction lines on demand.
func (op Op) Neutral() float64 {
	switch op {
	case OpAdd:
		return 0
	case OpMul:
		return 1
	case OpMax:
		return math.Inf(-1)
	case OpMin:
		return math.Inf(1)
	default:
		return 0
	}
}

// Apply combines accumulator a with contribution b under the operator.
func (op Op) Apply(a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpMul:
		return a * b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		return a
	}
}

// Loop is a reduction loop instance: the unit of work a SmartApp hands to
// the adaptive reduction runtime. Iterations are stored flattened
// (offsets into a single refs slice) to keep large traces cache-friendly.
type Loop struct {
	// Name identifies the loop (e.g. "Irreg-DO100").
	Name string
	// NumElems is the reduction array dimension (number of elements of w).
	NumElems int
	// ElemBytes is the size of one reduction element; the paper's loops
	// reduce into double-precision arrays, so this defaults to 8.
	ElemBytes int
	// WorkPerIter is the average number of non-reduction instructions per
	// iteration (Table 2's "Instruc. per Iter." minus the reduction
	// operations). The virtual-time harness and the simulator charge this
	// as computation between reduction accesses.
	WorkPerIter float64
	// DataRefsPerIter is the average number of non-reduction data
	// references per iteration (reads of coordinates, matrix entries,
	// flux arrays, ...). The CC-NUMA simulator streams these through the
	// caches, where they compete with reduction lines — the effect behind
	// Table 2's displaced-lines column.
	DataRefsPerIter float64
	// Op is the reduction operator.
	Op Op
	// Invocations is how many times the enclosing program executes this
	// loop with the same access pattern (Table 2's "# of Invocations").
	// Inspector-based schemes (sel, lw) amortize their inspector cost
	// over it; a zero value means 1.
	Invocations int

	offsets []int32
	refs    []int32
	// seal is set once, by Seal, and never cleared: the fingerprint
	// memo of a loop whose iteration structure no method may change.
	seal *sealMemo
}

// sealMemo is a sealed loop's fingerprint and the geometry words it was
// computed under.
type sealMemo struct {
	numElems, elemBytes, refs, offsets int
	op                                 Op
	fp                                 uint64
}

// matches reports whether l still has the geometry m's fingerprint was
// computed under.
func (m *sealMemo) matches(l *Loop) bool {
	return m.numElems == l.NumElems && m.elemBytes == l.ElemBytes && m.op == l.Op &&
		m.refs == len(l.refs) && m.offsets == len(l.offsets)
}

// NewLoop returns an empty loop over numElems reduction elements.
func NewLoop(name string, numElems int) *Loop {
	return &Loop{
		Name:      name,
		NumElems:  numElems,
		ElemBytes: 8,
		Op:        OpAdd,
		offsets:   []int32{0},
	}
}

// AddIter appends one iteration that references the given reduction
// elements. Indices must be in [0, NumElems). It panics on a sealed loop.
func (l *Loop) AddIter(refs ...int32) {
	l.checkUnsealed("AddIter")
	for _, r := range refs {
		if int(r) < 0 || int(r) >= l.NumElems {
			panic(fmt.Sprintf("trace: ref %d out of range [0,%d)", r, l.NumElems))
		}
	}
	l.refs = append(l.refs, refs...)
	l.offsets = append(l.offsets, int32(len(l.refs)))
}

// NumIters returns the number of iterations in the loop.
func (l *Loop) NumIters() int { return len(l.offsets) - 1 }

// Iter returns the reduction element indices referenced by iteration i.
// The returned slice aliases internal storage and must not be modified.
func (l *Loop) Iter(i int) []int32 {
	return l.refs[l.offsets[i]:l.offsets[i+1]]
}

// TotalRefs returns the total number of reduction references in the loop
// (the sum of the CH histogram, in the paper's terminology).
func (l *Loop) TotalRefs() int { return len(l.refs) }

// RefsInRange returns the number of reduction references made by
// iterations [lo, hi). It is O(1): schedulers use it to bound the storage
// a block of iterations can touch.
func (l *Loop) RefsInRange(lo, hi int) int {
	return int(l.offsets[hi] - l.offsets[lo])
}

// ArrayBytes returns the reduction array footprint in bytes.
func (l *Loop) ArrayBytes() int { return l.NumElems * l.ElemBytes }

// Value is the deterministic contribution of the k-th reduction reference
// of iteration iter to element idx. Using a pure function instead of stored
// values keeps multi-million-reference traces compact while still letting
// every scheme's result be checked against the sequential reference
// execution bit for bit.
//
// Contributions lie on an exact grid: multiples of 2^-27 in (0, 1]. A sum
// of fewer than 2^26 of them is a multiple of 2^-27 below 2^26, which a
// float64 holds exactly, so every partial sum is exact and every
// association of an add reduction returns RunSequential's bits (max and
// min are exact anyway; mul still rounds). A loop that arrives over the
// wire stays under the bound, since a frame is capped at 64 MiB and every
// reference costs at least one byte of it.
func Value(iter, k int, idx int32) float64 {
	h := uint64(iter)*0x9E3779B97F4A7C15 ^ uint64(k)*0xBF58476D1CE4E5B9 ^ uint64(idx)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	// The top 27 bits, shifted into [1, 2^27] and scaled into (0, 1]:
	// positive and well-scaled, so add/mul/max/min all stay stable. The
	// int64 conversion is exact (the value is below 2^27) and compiles to
	// one signed convert, where a uint64 one takes a branch.
	return float64(int64(h>>37)+1) / (1 << 27)
}

// RunSequential executes the loop sequentially and returns the reduction
// array. This is the semantic reference every parallel scheme must match.
func (l *Loop) RunSequential() []float64 {
	w := make([]float64, l.NumElems)
	neutral := l.Op.Neutral()
	for i := range w {
		w[i] = neutral
	}
	for i := 0; i < l.NumIters(); i++ {
		for k, idx := range l.Iter(i) {
			w[idx] = l.Op.Apply(w[idx], Value(i, k, idx))
		}
	}
	return w
}

// InvocationCount returns Invocations clamped to at least 1.
func (l *Loop) InvocationCount() int {
	if l.Invocations < 1 {
		return 1
	}
	return l.Invocations
}

// TouchedElems returns how many distinct reduction elements the loop
// references (used by the sparsity and connectivity metrics).
func (l *Loop) TouchedElems() int {
	touched := make([]bool, l.NumElems)
	n := 0
	for _, r := range l.refs {
		if !touched[r] {
			touched[r] = true
			n++
		}
	}
	return n
}

// Fingerprint returns a 64-bit structural signature of the loop's access
// pattern: the dimensions, operator and a strided sample of the subscript
// stream and iteration shape. Two loops with the same fingerprint almost
// surely have the same pattern regime, which is what the adaptive engine's
// decision cache keys on — the paper's "re-characterize only when the
// pattern changed" rule turned into a hash lookup. It reads O(samples)
// references regardless of trace size: refs at every (len(refs)/256)-th
// position from 0, mixed with their positions, and offsets at every
// (NumIters/256)-th, each stride at least 1. Those positions are the
// contract: changing any one of them changes the fingerprint, and a loop
// that differs only elsewhere has the same one (see Flat). The samples
// feed a four-lane SampleHash. A sealed loop returns the value Seal
// computed while its geometry words (NumElems, ElemBytes, Op and the two
// lengths) are the ones it was computed under, and recomputes it
// otherwise, so the fingerprint stays a function of the loop's fields.
func (l *Loop) Fingerprint() uint64 {
	if m := l.seal; m != nil && m.matches(l) {
		return m.fp
	}
	return l.fingerprint()
}

// fingerprint computes Fingerprint from the loop's content.
func (l *Loop) fingerprint() uint64 {
	const samples = 256
	h := NewSampleHash(uint64(l.NumElems), uint64(l.ElemBytes), uint64(len(l.refs)), uint64(len(l.offsets)), uint64(l.Op))
	h.Refs(l.refs, len(l.refs)/samples)
	h.Values(l.offsets, (len(l.offsets)-1)/samples)
	return h.Sum()
}

// Flat exposes the loop's flattened iteration structure: offsets is the
// iteration boundary array (len NumIters+1, offsets[0] == 0) and refs the
// concatenated reduction element indices, so iteration i references
// refs[offsets[i]:offsets[i+1]]. Both slices alias internal storage and
// must not be modified; the wire protocol encodes from them directly
// instead of walking Iter per iteration. A loop edited through them
// after it was submitted is not detected: a service that holds the loop
// re-checks it only at the positions Fingerprint and the segment hash
// sample, and answers an edit anywhere else with the previous content's
// result (engine.Engine.Submit states the contract). A sealed loop is
// not re-checked even there: its fingerprint is the one Seal computed,
// and the engine verifies it against the storage its resident retained
// by identity alone, so once the loop has armed a resident an edit
// through these slices at any position is answered with the armed
// content's result.
func (l *Loop) Flat() (offsets, refs []int32) { return l.offsets, l.refs }

// Seal declares the loop's iteration structure final: it memoises the
// fingerprint, and from then on AddIter, SetFlat and SetFlatUnchecked
// panic. The exported fields stay assignable, and Fingerprint follows
// them. Only the owner of a loop's only reference seals it, before
// sharing it (the network server's interned copies); sealing twice is a
// no-op.
func (l *Loop) Seal() {
	if l.seal != nil {
		return
	}
	l.seal = &sealMemo{
		numElems: l.NumElems, elemBytes: l.ElemBytes, op: l.Op,
		refs: len(l.refs), offsets: len(l.offsets),
		fp: l.fingerprint(),
	}
}

// Sealed reports whether Seal has been called on the loop.
func (l *Loop) Sealed() bool { return l.seal != nil }

// checkUnsealed panics when a mutator is called on a sealed loop: a
// contract violation by the caller, like a bad processor count.
func (l *Loop) checkUnsealed(method string) {
	if l.seal != nil {
		panic(fmt.Sprintf("trace: %s on sealed loop %q", method, l.Name))
	}
}

// SetFlat installs a flattened iteration structure built elsewhere (a
// trace loader, a test), taking ownership of both slices. It validates
// the same invariants AddIter maintains and leaves the loop unchanged on
// error. It panics on a sealed loop.
func (l *Loop) SetFlat(offsets, refs []int32) error {
	l.checkUnsealed("SetFlat")
	saveOff, saveRefs := l.offsets, l.refs
	l.offsets, l.refs = offsets, refs
	if err := l.Validate(); err != nil {
		l.offsets, l.refs = saveOff, saveRefs
		return err
	}
	return nil
}

// SetFlatUnchecked is SetFlat without the O(iters + refs) re-validation,
// for callers that construct the invariants themselves — the wire
// decoder bounds-checks every offset and reference as it builds the
// arrays, and re-walking multi-million-reference traces a second time
// per network submission would double the decode cost for no added
// safety. Anything installed here that violates Validate's invariants is
// a bug in the caller. It panics on a sealed loop.
func (l *Loop) SetFlatUnchecked(offsets, refs []int32) {
	l.checkUnsealed("SetFlatUnchecked")
	l.offsets, l.refs = offsets, refs
}

// EqualPattern reports whether two loops are the same reduction job in
// every respect that affects its results: dimensions, operator and the
// full access pattern. Names and the characterization metadata
// (WorkPerIter, DataRefsPerIter, Invocations) are ignored — two clients
// may label or profile identical work differently, and the engine's
// decision cache already keys on Fingerprint, which excludes them too;
// a stricter predicate would only break sharing between submissions the
// engine itself treats as one pattern. The network server interns
// decoded loops under this predicate so repeated submissions of one hot
// pattern become pointer-identical, which is what lets the engine verify
// a resident hit across the network hop by identity (the first
// submission's metadata rides along on the canonical loop).
func (l *Loop) EqualPattern(m *Loop) bool {
	if l == m {
		return true
	}
	if l == nil || m == nil {
		return false
	}
	if l.NumElems != m.NumElems || l.ElemBytes != m.ElemBytes ||
		l.Op != m.Op ||
		len(l.offsets) != len(m.offsets) || len(l.refs) != len(m.refs) {
		return false
	}
	for i, o := range l.offsets {
		if m.offsets[i] != o {
			return false
		}
	}
	for i, r := range l.refs {
		if m.refs[i] != r {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the loop, unsealed.
func (l *Loop) Clone() *Loop {
	c := *l
	c.offsets = append([]int32(nil), l.offsets...)
	c.refs = append([]int32(nil), l.refs...)
	c.seal = nil
	return &c
}

// Validate checks structural invariants and returns an error describing the
// first violation, or nil.
func (l *Loop) Validate() error {
	if l.NumElems <= 0 {
		return fmt.Errorf("trace: loop %q has non-positive NumElems %d", l.Name, l.NumElems)
	}
	if len(l.offsets) == 0 || l.offsets[0] != 0 {
		return fmt.Errorf("trace: loop %q has malformed offsets", l.Name)
	}
	for i := 1; i < len(l.offsets); i++ {
		if l.offsets[i] < l.offsets[i-1] {
			return fmt.Errorf("trace: loop %q offsets not monotonic at %d", l.Name, i)
		}
	}
	if int(l.offsets[len(l.offsets)-1]) != len(l.refs) {
		return fmt.Errorf("trace: loop %q final offset %d != len(refs) %d", l.Name, l.offsets[len(l.offsets)-1], len(l.refs))
	}
	for _, r := range l.refs {
		if int(r) < 0 || int(r) >= l.NumElems {
			return fmt.Errorf("trace: loop %q ref %d out of range [0,%d)", l.Name, r, l.NumElems)
		}
	}
	return nil
}
