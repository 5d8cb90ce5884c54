// Package reduction implements the paper's library of parallel reduction
// algorithms (Section 4):
//
//   - rep:  private accumulation and global update in replicated private
//     arrays
//   - ll:   replicated buffer with links (lazy initialization, merge only
//     touched elements; on dense loops, rep's execution)
//   - sel:  selective privatization (only cross-processor shared elements
//     are privatized; exclusive elements are written in place)
//   - lw:   local write — an "owner computes" method with iteration
//     replication and no merge phase
//   - hash: sparse reductions with privatization in hash tables
//
// Every scheme is a real parallel execution of a trace.Loop on goroutines
// (Run, or RunInto with a pooled execution context). The privatizing
// schemes (rep, ll, sel, hash) share one association: each processor
// accumulates its static block of iterations from the neutral element,
// and the partials fold in processor order, so the four return the same
// bits for a given loop and procs. lw applies every contribution in
// iteration order and returns trace.Loop.RunSequential's bits. Around the
// schemes the package holds what the serving stack executes them through:
// the Exec context and BufferPool, the optimized kernels and their naive
// twins, SegPlan/SegCache (shared segment partial sums, kept for the
// claims benchmark's probes) and DeltaState (incremental sessions). inspect.go is the
// read-only surface through which the paper-track simulators (the lab's
// simred) replay the schemes' inspectors; nothing here depends on a
// machine model.
package reduction

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// Scheme is one parallel reduction algorithm.
type Scheme interface {
	// Name returns the paper's abbreviation: rep, ll, sel, lw or hash.
	Name() string
	// Run executes the loop in parallel on procs goroutines and returns
	// the reduction array. It is RunInto with a fresh context: every
	// privatization buffer is allocated cold.
	Run(l *trace.Loop, procs int) []float64
	// RunInto executes the loop in parallel on procs goroutines using the
	// execution context's pooled buffers, writing the reduction array
	// into out when its capacity suffices. ex and out may both be nil,
	// which degenerates to Run.
	RunInto(l *trace.Loop, procs int, ex *Exec, out []float64) []float64
}

// All returns every scheme in the library, in the paper's order.
func All() []Scheme {
	return []Scheme{Rep{}, LinkedList{}, Selective{}, LocalWrite{}, Hash{}}
}

// ByName returns the scheme with the given paper abbreviation.
func ByName(name string) (Scheme, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("reduction: unknown scheme %q", name)
}

// Names returns the abbreviations of all schemes in library order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name()
	}
	return names
}

// blockBounds returns the [lo, hi) iteration range of block p when n
// iterations are block-scheduled over procs processors, matching the
// paper's static block scheduling (Figure 5 splits "0..Nodes" this way).
func blockBounds(n, procs, p int) (lo, hi int) {
	base := n / procs
	rem := n % procs
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

// owner returns the processor that owns element idx under a block
// partition of numElems elements over procs processors (the partition the
// local-write scheme uses).
func owner(idx int32, numElems, procs int) int {
	lo, hi := 0, procs
	for lo < hi {
		mid := (lo + hi) / 2
		elemLo, elemHi := blockBounds(numElems, procs, mid)
		switch {
		case int(idx) < elemLo:
			hi = mid
		case int(idx) >= elemHi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return lo
}

// parallelFor runs body(p) for p in [0, procs) on procs goroutines and
// waits for all of them.
func parallelFor(procs int, body func(p int)) {
	var wg sync.WaitGroup
	wg.Add(procs)
	for p := 0; p < procs; p++ {
		go func(p int) {
			defer wg.Done()
			body(p)
		}(p)
	}
	wg.Wait()
}

// checkProcs panics on a non-positive processor count; all schemes share
// this argument contract.
func checkProcs(procs int) {
	if procs < 1 {
		panic(fmt.Sprintf("reduction: invalid processor count %d", procs))
	}
}
