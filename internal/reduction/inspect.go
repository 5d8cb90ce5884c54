package reduction

import "repro/internal/trace"

// This file is the read-only inspection surface of the scheme library. It
// exists for the lab (package simred), whose virtual-time simulators
// replay what each scheme's inspector decides — which block an iteration
// falls in, which elements sel privatizes, which iterations lw replicates
// to which owner, which slots a hashed update probes — by calling the code
// that ships rather than a copy of it. Nothing here mutates scheme or
// pool state, and the serving stack does not call it.

// BlockBounds returns the [lo, hi) range of block p when n items are
// block-scheduled over procs processors: the static partition every scheme
// falls back to and sel and lw always use. For the lab.
func BlockBounds(n, procs, p int) (lo, hi int) { return blockBounds(n, procs, p) }

// Classify runs sel's inspector and returns the remap table (element ->
// compact index, -1 if exclusive to one processor) and the number of
// conflicting elements. The table is freshly allocated. For the lab.
func (s Selective) Classify(l *trace.Loop, procs int) (remap []int32, numConflict int) {
	return s.classify(l, procs, nil)
}

// IterLists runs lw's inspector and returns, per owning processor, the
// ascending list of iterations it must execute. The lists are freshly
// allocated. For the lab.
func (lw LocalWrite) IterLists(l *trace.Loop, procs int) [][]int32 {
	return lw.inspect(l, procs, nil)
}

// HashProbe is one of hash's private open-addressing tables with the
// accumulated values left out: it reports where a key lands and how many
// probes reaching it took. For the lab.
type HashProbe struct{ t *hashTable }

// NewHashProbe sizes a table the way Hash.RunInto does for a block that
// can hold capacityHint keys.
func NewHashProbe(capacityHint int) *HashProbe {
	return &HashProbe{t: newHashTable(capacityHint)}
}

// Touch looks key up, inserting it on first sight, and returns its slot
// and the length of the probe sequence that reached it (previous probes
// visited the preceding slots, modulo the table size).
func (h *HashProbe) Touch(key int32) (slot int32, probes int) {
	probes, _ = h.t.update(key, 0, trace.OpAdd)
	slot, _ = h.t.slot(key)
	return slot, probes
}

// Keys returns the table's key slots in table order (-1 = empty); its
// length is the table size, a power of two. The slice is the table's own
// storage and must not be modified.
func (h *HashProbe) Keys() []int32 { return h.t.keys }
