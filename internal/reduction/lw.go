package reduction

import "repro/internal/trace"

// LocalWrite is the paper's local write (lw) scheme, an "owner computes"
// method (Han & Tseng). The reduction array is block-partitioned across
// processors; every iteration is executed by each processor that owns at
// least one element the iteration references, and each executing
// processor applies only the updates to elements it owns. There is no
// private storage, no initialization sweep, and no merge phase — the price
// is iteration replication: an iteration with high mobility (touching
// elements owned by several processors) is re-executed by each of them.
//
// lw wins when iterations mostly stay within one owner's partition
// (low effective mobility) and the array is too large for rep; it loses
// when mobility is high, because the loop body is replicated MO-fold.
// The paper also notes lw is inapplicable when the loop body modifies
// other shared arrays (iteration replication would double-apply those
// writes); callers express that through trace metadata at a higher level.
type LocalWrite struct{}

// Name returns "lw".
func (LocalWrite) Name() string { return "lw" }

// inspect builds, for each processor, the list of iterations it must
// execute (those touching at least one element it owns). With an Exec the
// per-owner lists are appended into pooled backing arrays sized for the
// worst case (every iteration replicated to every owner), so repeated
// inspections of same-shaped loops allocate nothing.
func (LocalWrite) inspect(l *trace.Loop, procs int, ex *Exec) [][]int32 {
	pool := ex.pool()
	iterLists := ex.int32Slots(procs)
	if pool != nil {
		// Pre-size from the pool for the worst case (every iteration
		// replicated to every owner) so appends never reallocate; the
		// storage is recycled, so the width is paid once. Without a pool
		// the lists grow on demand, allocating only the actual
		// replicated count (IterLists callers).
		for p := range iterLists {
			iterLists[p] = pool.Int32(l.NumIters())[:0]
		}
	}
	var ownersSeen [64]bool // procs <= 64 in every configuration we model
	for i := 0; i < l.NumIters(); i++ {
		for j := range ownersSeen[:procs] {
			ownersSeen[j] = false
		}
		for _, idx := range l.Iter(i) {
			o := owner(idx, l.NumElems, procs)
			if !ownersSeen[o] {
				ownersSeen[o] = true
				iterLists[o] = append(iterLists[o], int32(i))
			}
		}
	}
	return iterLists
}

// Run executes the loop under owner-computes with iteration replication.
func (lw LocalWrite) Run(l *trace.Loop, procs int) []float64 {
	return lw.RunInto(l, procs, nil, nil)
}

// RunInto executes the loop under owner-computes with iteration
// replication; the inspector's per-owner iteration lists come from the
// context's pool. The element partition fixes who executes what. The
// accumulation is the scalar body (naiveAccumOwned) for every operator.
func (lw LocalWrite) RunInto(l *trace.Loop, procs int, ex *Exec, out []float64) []float64 {
	checkProcs(procs)
	if procs > 64 {
		panic("reduction: LocalWrite supports at most 64 processors")
	}
	neutral := l.Op.Neutral()
	pool := ex.pool()
	iterLists := lw.inspect(l, procs, ex)

	out, fresh := ensureOut(out, l.NumElems)
	initNeutral(out, neutral, fresh)
	parallelFor(procs, func(p int) {
		elemLo, elemHi := blockBounds(l.NumElems, procs, p)
		naiveAccumOwned(out, elemLo, elemHi, iterLists[p], l)
	})
	for p := range iterLists {
		pool.PutInt32(iterLists[p])
	}
	return out
}
