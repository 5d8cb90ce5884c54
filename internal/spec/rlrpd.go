package spec

import (
	"sync"

	"repro/internal/reduction"
)

// RLRPDStats describes how a Recursive LRPD execution unfolded.
type RLRPDStats struct {
	// Passes is how many speculative passes were needed (1 = the loop was
	// fully parallel).
	Passes int
	// IterationsExecuted counts iteration executions including
	// re-executions; IterationsExecuted/NumIters is the replication
	// overhead of speculation.
	IterationsExecuted int
	// CommittedPerPass records how many iterations each pass committed.
	CommittedPerPass []int
}

// RLRPD executes the loop with the Recursive LRPD test on procs
// processors: each pass speculatively executes the remaining iterations
// in parallel blocks with copy-in from the committed state; validation
// finds the earliest cross-block flow dependence sink, commits every
// block before it, and the next pass restarts there. A fully parallel
// suffix commits in one more pass; the worst case degenerates to
// sequential execution while still producing the correct result.
func (l *Loop) RLRPD(init []float64, procs int) ([]float64, RLRPDStats) {
	if procs < 1 {
		panic("spec: procs must be >= 1")
	}
	n := l.NumIters()
	committed := append([]float64(nil), init...)
	start := 0
	var st RLRPDStats

	for start < n {
		st.Passes++
		remaining := n - start
		blocks := procs
		if blocks > remaining {
			blocks = remaining
		}

		type blockResult struct {
			lo, hi   int
			writes   []int32   // elements written, in order
			vals     []float64 // corresponding values
			readSet  map[int32]struct{}
			writeSet map[int32]struct{}
		}
		results := make([]blockResult, blocks)
		var wg sync.WaitGroup
		for b := 0; b < blocks; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				lo, hi := reduction.BlockBounds(remaining, blocks, b)
				lo += start
				hi += start
				// Copy-in: the block executes against a private copy of
				// the committed state, so intra-block dependences are
				// honored and only cross-block ones need validation.
				priv := append([]float64(nil), committed...)
				br := blockResult{
					lo: lo, hi: hi,
					readSet:  make(map[int32]struct{}),
					writeSet: make(map[int32]struct{}),
				}
				for i := lo; i < hi; i++ {
					accs := l.accesses(i)
					for _, a := range accs {
						if a.Kind == Read {
							// Exposed read: only if not written earlier
							// within this block.
							if _, wr := br.writeSet[a.Elem]; !wr {
								br.readSet[a.Elem] = struct{}{}
							}
						}
					}
					v := body(i, priv, accs)
					for _, a := range accs {
						if a.Kind == Write {
							priv[a.Elem] = v
							br.writeSet[a.Elem] = struct{}{}
							br.writes = append(br.writes, a.Elem)
							br.vals = append(br.vals, v)
						}
					}
				}
				results[b] = br
			}(b)
		}
		wg.Wait()

		// Validation: block s has a dependence sink if it exposed-read or
		// wrote an element some earlier block of this pass wrote (write
		// after write must also be ordered, which commit-in-order handles,
		// but an exposed read of an earlier block's write is a flow
		// violation: the reader saw the stale committed value).
		firstBad := blocks
		writtenBefore := make(map[int32]struct{})
		for b := 0; b < blocks; b++ {
			bad := false
			for e := range results[b].readSet {
				if _, ok := writtenBefore[e]; ok {
					bad = true
					break
				}
			}
			if bad {
				firstBad = b
				break
			}
			for e := range results[b].writeSet {
				writtenBefore[e] = struct{}{}
			}
		}

		// Commit blocks [0, firstBad) in order.
		committedIters := 0
		for b := 0; b < firstBad; b++ {
			br := results[b]
			for i, e := range br.writes {
				committed[e] = br.vals[i]
			}
			committedIters += br.hi - br.lo
			st.IterationsExecuted += br.hi - br.lo
		}
		if firstBad < blocks {
			// The failed blocks' executions are wasted work.
			for b := firstBad; b < blocks; b++ {
				st.IterationsExecuted += results[b].hi - results[b].lo
			}
		}
		st.CommittedPerPass = append(st.CommittedPerPass, committedIters)

		if committedIters == 0 {
			// The very first block of the pass failed internally? It
			// cannot: intra-block dependences are honored by copy-in
			// execution. firstBad == 0 would mean block 0 read something
			// written before it this pass — impossible. Guard anyway.
			br := results[0]
			for i, e := range br.writes {
				committed[e] = br.vals[i]
			}
			st.IterationsExecuted += br.hi - br.lo
			committedIters = br.hi - br.lo
		}
		start += committedIters
	}
	return committed, st
}

// SpeedupEstimate returns the idealized parallel speedup of the observed
// R-LRPD execution: sequential work divided by the critical-path work
// (each pass costs its largest block plus validation, approximated by the
// block size).
func (st RLRPDStats) SpeedupEstimate(numIters, procs int) float64 {
	if numIters == 0 || st.Passes == 0 {
		return 1
	}
	// Each pass executes remaining/blocks iterations per processor.
	critical := 0.0
	remaining := numIters
	for _, c := range st.CommittedPerPass {
		blocks := procs
		if blocks > remaining {
			blocks = remaining
		}
		if blocks < 1 {
			blocks = 1
		}
		critical += float64((remaining + blocks - 1) / blocks)
		remaining -= c
		if remaining <= 0 {
			break
		}
	}
	if critical == 0 {
		return 1
	}
	return float64(numIters) / critical
}
