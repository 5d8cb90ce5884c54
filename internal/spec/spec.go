// Package spec implements the run-time speculative parallelization
// techniques of Section 3: the LRPD test (speculative execution of a loop
// as a DOALL with shadow-array validation) and the Recursive LRPD test
// (R-LRPD), which extracts the maximum available parallelism from
// partially parallel loops: in a block-scheduled loop executed under the
// processor-wise LRPD test with copy-in, the chunks of iterations up to
// the source of the first detected dependence arc are always executed
// correctly, so only the remainder of the work is re-executed.
package spec

import (
	"fmt"
	"sync"

	"repro/internal/reduction"
)

// AccessKind distinguishes reads from writes in an iteration's descriptor.
type AccessKind uint8

const (
	// Read is an exposed use of a shared element.
	Read AccessKind = iota
	// Write is a definition of a shared element.
	Write
)

// Access is one shared-array access of an iteration.
type Access struct {
	Elem int32
	Kind AccessKind
}

// Loop is a general (not necessarily parallel) loop over a shared array.
// Iteration semantics are fixed and deterministic: an iteration first
// reads all its Read elements, combines them, and then stores a value
// derived from that combination into each of its Write elements. Flow
// dependences therefore arise exactly when an iteration reads an element
// a lexically earlier iteration writes.
type Loop struct {
	NumElems int
	iters    [][]Access
}

// NewLoop creates an empty loop over numElems shared elements.
func NewLoop(numElems int) *Loop {
	return &Loop{NumElems: numElems}
}

// AddIter appends an iteration with the given accesses.
func (l *Loop) AddIter(accs ...Access) {
	for _, a := range accs {
		if int(a.Elem) < 0 || int(a.Elem) >= l.NumElems {
			panic(fmt.Sprintf("spec: access to element %d out of range", a.Elem))
		}
	}
	l.iters = append(l.iters, accs)
}

// NumIters returns the iteration count.
func (l *Loop) NumIters() int { return len(l.iters) }

// Accesses returns iteration i's access descriptor. The slice aliases
// internal storage and must not be modified.
func (l *Loop) Accesses(i int) []Access { return l.iters[i] }

// ExecIter applies iteration i to arr in place, honoring the loop's fixed
// body semantics. It is exported for the inspector/executor, which runs
// iterations out of lexical order once the inspector has proven them
// independent.
func (l *Loop) ExecIter(i int, arr []float64) { execIter(i, arr, l.iters[i]) }

// accesses is the internal accessor used by the speculation engines.
func (l *Loop) accesses(i int) []Access { return l.iters[i] }

// body computes iteration i's effect given the visible array state:
// it returns the value stored to every written element.
func body(i int, arr []float64, accs []Access) float64 {
	sum := 0.0
	for _, a := range accs {
		if a.Kind == Read {
			sum += arr[a.Elem]
		}
	}
	// A nonlinear, iteration-dependent function so that executing with
	// stale reads produces a detectable wrong answer.
	return 1 + 0.5*sum + float64(i%7)*0.25
}

// execIter applies iteration i to arr in place.
func execIter(i int, arr []float64, accs []Access) {
	v := body(i, arr, accs)
	for _, a := range accs {
		if a.Kind == Write {
			arr[a.Elem] = v
		}
	}
}

// RunSequential executes the loop sequentially from the given initial
// array (copied) and returns the final state — the semantic reference.
func (l *Loop) RunSequential(init []float64) []float64 {
	arr := append([]float64(nil), init...)
	for i := range l.iters {
		execIter(i, arr, l.iters[i])
	}
	return arr
}

// LRPDResult reports the outcome of a speculative DOALL attempt.
type LRPDResult struct {
	// Passed is true when the loop was proven fully parallel.
	Passed bool
	// FirstDependence is the earliest iteration that read an element
	// written by a different earlier iteration (valid when !Passed).
	FirstDependence int
	// Array is the committed result (only when Passed).
	Array []float64
}

// marks are the per-element shadow flags of the LRPD test. Reads are
// tracked as a span (earliest and latest reading iteration): an element is
// safe only if it is never written, or written by exactly one iteration
// that is also its only reader (privatizable).
type marks struct {
	written []int32 // iteration of the last write, -1 if none
	firstWr []int32 // iteration of the first write, -1 if none
	minRead []int32 // earliest reading iteration, -1 if none
	maxRead []int32 // latest reading iteration, -1 if none
	multiWr []bool  // written by more than one iteration
}

func newMarks(n int) *marks {
	m := &marks{
		written: make([]int32, n), firstWr: make([]int32, n),
		minRead: make([]int32, n), maxRead: make([]int32, n),
		multiWr: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		m.written[i], m.firstWr[i], m.minRead[i], m.maxRead[i] = -1, -1, -1, -1
	}
	return m
}

// LRPD runs the LRPD test on the whole loop: it executes all iterations
// speculatively in parallel on procs goroutines against a privatized copy
// of init, marking shadow flags, and then validates. On success the
// speculative result is committed; on failure the caller must fall back
// (or use the recursive variant).
//
// The speculative execution here is value-correct only when the loop is
// indeed fully parallel — exactly the property the test validates.
func (l *Loop) LRPD(init []float64, procs int) LRPDResult {
	n := l.NumIters()
	if procs < 1 {
		panic("spec: procs must be >= 1")
	}
	sh := newMarks(l.NumElems)
	var mu sync.Mutex

	// Phase 1: parallel marking + speculative execution against the
	// original values (copy-in semantics: reads see init, writes are
	// privatized per iteration and merged by last-writer).
	type writeRec struct {
		iter int32
		elem int32
		val  float64
	}
	perProc := make([][]writeRec, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo, hi := reduction.BlockBounds(n, procs, p)
			local := newMarks(l.NumElems)
			var recs []writeRec
			for i := lo; i < hi; i++ {
				accs := l.accesses(i)
				v := body(i, init, accs) // copy-in: reads see original values
				for _, a := range accs {
					if a.Kind == Read {
						if local.minRead[a.Elem] == -1 || int32(i) < local.minRead[a.Elem] {
							local.minRead[a.Elem] = int32(i)
						}
						if int32(i) > local.maxRead[a.Elem] {
							local.maxRead[a.Elem] = int32(i)
						}
					} else {
						if local.firstWr[a.Elem] == -1 {
							local.firstWr[a.Elem] = int32(i)
						} else {
							local.multiWr[a.Elem] = true
						}
						local.written[a.Elem] = int32(i)
						recs = append(recs, writeRec{int32(i), a.Elem, v})
					}
				}
			}
			perProc[p] = recs
			mu.Lock()
			mergeMarks(sh, local)
			mu.Unlock()
		}(p)
	}
	wg.Wait()

	// Phase 2: validation. An element is safe when it is never written,
	// or written exactly once by the only iteration that reads it
	// (privatizable). Everything else is a cross-iteration dependence.
	firstDep := -1
	for e := 0; e < l.NumElems; e++ {
		w := sh.firstWr[e]
		if w == -1 {
			continue // read-only element
		}
		rMin, rMax := sh.minRead[e], sh.maxRead[e]
		if !sh.multiWr[e] && (rMin == -1 || (rMin == w && rMax == w)) {
			continue // written once, read only by its writer
		}
		// The dependence sink is the latest involved iteration.
		sink := sh.written[e]
		if rMax > sink {
			sink = rMax
		}
		if firstDep == -1 || int(sink) < firstDep {
			firstDep = int(sink)
		}
	}
	if firstDep >= 0 {
		return LRPDResult{Passed: false, FirstDependence: firstDep}
	}

	// Commit: apply writes in iteration order (last writer wins).
	out := append([]float64(nil), init...)
	lastWriter := make([]int32, l.NumElems)
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	for _, recs := range perProc {
		for _, r := range recs {
			if r.iter >= lastWriter[r.elem] {
				lastWriter[r.elem] = r.iter
				out[r.elem] = r.val
			}
		}
	}
	return LRPDResult{Passed: true, Array: out}
}

func mergeMarks(dst, src *marks) {
	for e := range dst.written {
		if src.firstWr[e] != -1 {
			if dst.firstWr[e] == -1 {
				dst.firstWr[e] = src.firstWr[e]
			} else {
				dst.multiWr[e] = true
				if src.firstWr[e] < dst.firstWr[e] {
					dst.firstWr[e] = src.firstWr[e]
				}
			}
			if src.multiWr[e] {
				dst.multiWr[e] = true
			}
			if src.written[e] > dst.written[e] {
				dst.written[e] = src.written[e]
			}
		}
		if src.minRead[e] != -1 && (dst.minRead[e] == -1 || src.minRead[e] < dst.minRead[e]) {
			dst.minRead[e] = src.minRead[e]
		}
		if src.maxRead[e] > dst.maxRead[e] {
			dst.maxRead[e] = src.maxRead[e]
		}
	}
}
