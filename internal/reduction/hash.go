package reduction

import "repro/internal/trace"

// Hash implements the paper's sparse reduction with privatization in hash
// tables. Each processor accumulates into a private open-addressing hash
// table keyed by element index, so private storage is proportional to the
// number of distinct elements the processor touches rather than to the
// array dimension. The merge walks table entries only.
//
// The paper observes that hash wins only for extremely sparse references
// (Spice: SP ~0.1–0.2%): "the hash table reduces the allocated and
// processed space to such an extent that, although the setup of a hash
// table is large, the performance improves dramatically". Every access
// pays the hashing and probing overhead, so for anything but very sparse
// patterns hash loses to the array-based schemes.
type Hash struct{}

// Name returns "hash".
func (Hash) Name() string { return "hash" }

// hashTable is a deterministic open-addressing (linear probing) table.
type hashTable struct {
	keys []int32 // -1 = empty
	vals []float64
	mask int32
	n    int
}

func newHashTable(capacityHint int) *hashTable {
	var t hashTable
	t.init(capacityHint, nil)
	return &t
}

// init sizes the table for capacityHint keys, drawing storage from pool
// (nil-safe) so a recycled table costs only the key-slot reset sweep.
func (t *hashTable) init(capacityHint int, pool *BufferPool) {
	size := 16
	for size < capacityHint*2 {
		size <<= 1
	}
	t.keys = pool.Int32(size)
	t.vals = pool.Float64(size)
	t.mask = int32(size - 1)
	t.n = 0
	fillInt32(t.keys, -1)
}

// release returns the table's storage to the pool.
func (t *hashTable) release(pool *BufferPool) {
	pool.PutInt32(t.keys)
	pool.PutFloat64(t.vals)
	t.keys, t.vals = nil, nil
}

func hashKey(k int32) int32 {
	h := uint32(k) * 0x9E3779B9
	h ^= h >> 16
	return int32(h)
}

// slot returns the table index where key resides or should be inserted,
// and how many probes the lookup took.
func (t *hashTable) slot(key int32) (idx int32, probes int) {
	i := hashKey(key) & t.mask
	probes = 1
	for t.keys[i] != -1 && t.keys[i] != key {
		i = (i + 1) & t.mask
		probes++
	}
	return i, probes
}

// update applies op(contribution) to key's accumulator, inserting with the
// neutral element on first touch. It reports probe count and whether the
// key was newly inserted.
func (t *hashTable) update(key int32, v float64, op trace.Op) (probes int, inserted bool) {
	i, probes := t.slot(key)
	if t.keys[i] == -1 {
		t.keys[i] = key
		t.vals[i] = op.Neutral()
		t.n++
		inserted = true
	}
	t.vals[i] = op.Apply(t.vals[i], v)
	return probes, inserted
}

// Run executes the loop with per-processor hash tables.
func (h Hash) Run(l *trace.Loop, procs int) []float64 {
	return h.RunInto(l, procs, nil, nil)
}

// RunInto executes the loop with per-processor hash tables whose key and
// value arrays come from the context's pool. OpAdd loops run the
// inlined-probe kernel; other operators take the retained scalar
// reference (naive.go). Both build bit-identical table layouts.
func (Hash) RunInto(l *trace.Loop, procs int, ex *Exec, out []float64) []float64 {
	checkProcs(procs)
	neutral := l.Op.Neutral()
	pool := ex.pool()
	tables := ex.hashTableSlots(procs)
	fast := ex.fastAdd(l)
	offsets, refs := l.Flat()

	parallelFor(procs, func(p int) {
		t := &tables[p]
		lo, hi := blockBounds(l.NumIters(), procs, p)
		// Size for this block's actual reference count: the block's
		// distinct keys cannot exceed it, so the open-addressing table
		// always keeps a free slot and probing terminates — even when
		// skewed iteration lengths put far more than the per-processor
		// average of the references into this block.
		t.init(l.RefsInRange(lo, hi)+1, pool)
		if fast {
			t.accumHashAdd(offsets, refs, lo, hi)
		} else {
			t.naiveAccumHash(l, lo, hi)
		}
	})

	out, fresh := ensureOut(out, l.NumElems)
	initNeutral(out, neutral, fresh)
	for p := range tables {
		t := &tables[p]
		if fast {
			mergeTableAdd(out, t.keys, t.vals)
		} else {
			naiveMergeTable(out, t.keys, t.vals, l.Op)
		}
		t.release(pool)
	}
	return out
}
