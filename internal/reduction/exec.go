package reduction

import (
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// defaultL2Bytes is the host descriptor's default per-processor L2
// capacity, used to size merge blocks when the caller installs no
// platform-specific Exec.MergeBlockElems.
var defaultL2Bytes = core.DefaultPlatform(1).Cfg.L2Bytes

// BufferPool recycles the privatization buffers the schemes allocate per
// execution (private replicated arrays, link/flag arrays, remap tables,
// hash-table storage). Buffers are binned by power-of-two capacity class so
// a steady stream of similarly sized loops reuses the same storage instead
// of re-allocating P full arrays per job — the paper's "run-time tuning"
// level of adaptation applied to memory: once a loop shape has been served,
// serving it again costs no allocation.
//
// A BufferPool is safe for concurrent use by multiple goroutines. The nil
// *BufferPool is valid and falls back to plain allocation, so scheme code
// can call it unconditionally.
type BufferPool struct {
	f64 classPool[float64]
	i32 classPool[int32]
}

// maxSizeClass bounds capacity classes at 2^40 elements, far beyond any
// loop this repository models.
const maxSizeClass = 41

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool { return &BufferPool{} }

// sizeClass returns the bin whose capacity 2^class is the smallest power of
// two holding n elements.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Float64 returns a slice of length n with arbitrary contents, drawn from
// the pool when a buffer of the right class is available. Callers must
// initialize every element they read.
func (bp *BufferPool) Float64(n int) []float64 {
	if bp == nil {
		return make([]float64, n)
	}
	return bp.f64.get(n)
}

// PutFloat64 returns a buffer to the pool. The slice must not be used
// after the call.
func (bp *BufferPool) PutFloat64(s []float64) {
	if bp != nil {
		bp.f64.put(s)
	}
}

// Int32 is Float64's counterpart for index/flag/link arrays.
func (bp *BufferPool) Int32(n int) []int32 {
	if bp == nil {
		return make([]int32, n)
	}
	return bp.i32.get(n)
}

// PutInt32 returns an index buffer to the pool.
func (bp *BufferPool) PutInt32(s []int32) {
	if bp != nil {
		bp.i32.put(s)
	}
}

// classPool is one element type's bins. A sync.Pool holds interface
// values, and a slice header does not fit in one without a heap box, so
// a bin holds *[]T boxes and the emptied boxes wait in a pool of their
// own: a warm get and put allocate nothing.
type classPool[T float64 | int32] struct {
	bins  [maxSizeClass]sync.Pool // *[]T of capacity 2^class
	boxes sync.Pool               // emptied *[]T
}

func (p *classPool[T]) get(n int) []T {
	c := sizeClass(n)
	if v := p.bins[c].Get(); v != nil {
		box := v.(*[]T)
		s := *box
		*box = nil
		p.boxes.Put(box)
		return s[:n]
	}
	return make([]T, n, 1<<c)
}

// put bins s by its capacity; a slice whose capacity is not a power of
// two came from elsewhere and is dropped.
func (p *classPool[T]) put(s []T) {
	if cap(s) == 0 || cap(s) != 1<<sizeClass(cap(s)) {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:cap(s)]
	p.bins[sizeClass(cap(s))].Put(box)
}

// Exec is a reusable execution context for running schemes without
// per-call allocation: Scheme.RunInto threads it through the privatization,
// accumulation and merge phases. An Exec must be used by one job at a time
// (its scratch state is not concurrency-safe); the BufferPool it references
// may be shared between many Execs.
//
// The zero Exec and the nil *Exec are both valid and behave like the
// classic Run path (fresh allocations). Nothing in an Exec moves a
// partition: rep, ll, hash and sel cut the iteration space, and lw the
// element space, with the static blockBounds, so the order a scheme adds
// in — and therefore the bits it returns — depends on the loop, the scheme
// and procs only.
type Exec struct {
	// Pool supplies recycled privatization buffers; nil allocates fresh.
	Pool *BufferPool
	// MergeBlockElems overrides the element-block size the blocked
	// ordered merge (rep, dense ll and sel's conflicting set) folds at a
	// time, the per-block privatization sizing hook: one output block
	// should stay L2-resident while all procs private copies of it fold
	// into it, one pass per copy. Zero picks a default from the modeled
	// platform's L2 geometry; the engine sets it from its configured
	// platform via MergeBlockForCache. The block size never changes bits.
	MergeBlockElems int

	// scratch: per-processor slice headers reused across jobs.
	f64Slots  [][]float64
	i32Slots  [][]int32
	hashSlots []hashTable

	// naive forces the retained scalar reference kernels even for OpAdd;
	// the property tests use it to compare fast and naive executions of
	// identical structure. Never set on production paths.
	naive bool
}

// MergeBlockForCache returns the merge block size (in elements) for a
// machine whose per-processor L2 holds l2Bytes: the largest block such
// that procs private copies of it plus the output block fit in half the
// cache (the other half is left to the subscript stream and the batch
// fan-out destinations), floored so tiny caches still amortize the
// per-block setup of procs passes.
func MergeBlockForCache(l2Bytes, procs int) int {
	if procs < 1 {
		procs = 1
	}
	block := l2Bytes / 2 / 8 / (procs + 1)
	if block < 256 {
		block = 256
	}
	return block
}

// mergeBlock returns the context's merge block size (nil-safe).
func (ex *Exec) mergeBlock(procs int) int {
	if ex != nil && ex.MergeBlockElems > 0 {
		return ex.MergeBlockElems
	}
	return MergeBlockForCache(defaultL2Bytes, procs)
}

// fastAdd reports whether the loop takes the specialized OpAdd kernels in
// kernels.go; everything else runs the retained references in naive.go.
func (ex *Exec) fastAdd(l *trace.Loop) bool {
	return l.Op == trace.OpAdd && (ex == nil || !ex.naive)
}

// pool returns the context's buffer pool (nil-safe).
func (ex *Exec) pool() *BufferPool {
	if ex == nil {
		return nil
	}
	return ex.Pool
}

// float64Slots returns a reused [][]float64 of length procs for private
// per-processor buffers.
func (ex *Exec) float64Slots(procs int) [][]float64 {
	if ex == nil {
		return make([][]float64, procs)
	}
	if cap(ex.f64Slots) < procs {
		ex.f64Slots = make([][]float64, procs)
	}
	s := ex.f64Slots[:procs]
	for i := range s {
		s[i] = nil
	}
	return s
}

// int32Slots returns a reused [][]int32 of length procs.
func (ex *Exec) int32Slots(procs int) [][]int32 {
	if ex == nil {
		return make([][]int32, procs)
	}
	if cap(ex.i32Slots) < procs {
		ex.i32Slots = make([][]int32, procs)
	}
	s := ex.i32Slots[:procs]
	for i := range s {
		s[i] = nil
	}
	return s
}

// hashTableSlots returns a reused []hashTable of length procs.
func (ex *Exec) hashTableSlots(procs int) []hashTable {
	if ex == nil {
		return make([]hashTable, procs)
	}
	if cap(ex.hashSlots) < procs {
		ex.hashSlots = make([]hashTable, procs)
	}
	s := ex.hashSlots[:procs]
	for i := range s {
		s[i] = hashTable{}
	}
	return s
}

// ensureOut returns out resized to n when its capacity suffices, else a
// fresh zeroed array; the boolean reports the fresh case. Every scheme
// writes all n elements, so recycled contents never leak into results.
func ensureOut(out []float64, n int) ([]float64, bool) {
	if cap(out) >= n {
		return out[:n], false
	}
	return make([]float64, n), true
}

// initNeutral prepares a buffer as an accumulator: a recycled buffer (or
// a non-zero neutral element) needs the explicit sweep, while a freshly
// allocated one is already zero — the cold path skips the redundant pass.
func initNeutral(s []float64, neutral float64, fresh bool) {
	if !fresh || neutral != 0 {
		fill(s, neutral)
	}
}

// fill sets every element of s to v. The v == 0 case compiles to a memclr.
func fill(s []float64, v float64) {
	if v == 0 {
		for i := range s {
			s[i] = 0
		}
		return
	}
	for i := range s {
		s[i] = v
	}
}

// fillInt32 sets every element of s to v.
func fillInt32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}
