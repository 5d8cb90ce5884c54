package reduction

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// randomLoop builds a loop with a controllable pattern.
func randomLoop(elems, iters, refsPerIter int, seed int64) *trace.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop("rand", elems)
	l.WorkPerIter = 10
	refs := make([]int32, refsPerIter)
	for i := 0; i < iters; i++ {
		for k := range refs {
			refs[k] = int32(rng.Intn(elems))
		}
		l.AddIter(refs...)
	}
	return l
}

// clusteredLoop makes most iterations touch a small hot set, testing high
// contention paths.
func clusteredLoop(elems, iters int, seed int64) *trace.Loop {
	rng := rand.New(rand.NewSource(seed))
	l := trace.NewLoop("clustered", elems)
	hot := elems / 20
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < iters; i++ {
		if rng.Intn(10) < 8 {
			l.AddIter(int32(rng.Intn(hot)), int32(rng.Intn(hot)))
		} else {
			l.AddIter(int32(rng.Intn(elems)))
		}
	}
	return l
}

// cutOrder is the one association every path computes, parametrised by
// the cut: the iterations split at bounds (ascending, bounds[0] = 0 and
// the last = NumIters), each piece accumulated from the neutral element
// in iteration order by the naive kernel, the pieces folded in order.
// The paths differ only in the cut they pass: one piece for lw,
// processor blocks (procCuts) for the privatizing schemes, segments
// (segCuts) for SegPlan. No pieces reduce to the
// neutral array.
func cutOrder(l *trace.Loop, bounds []int) []float64 {
	res := make([]float64, l.NumElems)
	fill(res, l.Op.Neutral())
	w := make([]float64, l.NumElems)
	for k := 1; k < len(bounds); k++ {
		fill(w, l.Op.Neutral())
		naiveAccumFlat(w, l, bounds[k-1], bounds[k])
		combineOp(res, w, l.Op)
	}
	return res
}

// procCuts is the schemes' cut: one blockBounds block per processor.
func procCuts(l *trace.Loop, procs int) []int {
	bounds := []int{0}
	for p := 0; p < procs; p++ {
		_, hi := blockBounds(l.NumIters(), procs, p)
		bounds = append(bounds, hi)
	}
	return bounds
}

// segCuts is SegPlan's cut: segments of segIters
// iterations, the last one short.
func segCuts(l *trace.Loop, segIters int) []int {
	bounds := []int{0}
	for lo := 0; lo < l.NumIters(); lo += segIters {
		bounds = append(bounds, min(lo+segIters, l.NumIters()))
	}
	return bounds
}

// exactAnswer is the bits s must return: lw's are RunSequential's, every
// other scheme's are the processor cut's.
func exactAnswer(s Scheme, l *trace.Loop, procs int) []float64 {
	if s.Name() == "lw" {
		return l.RunSequential()
	}
	return cutOrder(l, procCuts(l, procs))
}

func assertMatchesSequential(t *testing.T, s Scheme, l *trace.Loop, procs int) {
	t.Helper()
	want := exactAnswer(s, l, procs)
	got := s.Run(l, procs)
	if len(got) != len(want) {
		t.Fatalf("%s: result length %d, want %d", s.Name(), len(got), len(want))
	}
	if i := bitsEqual(got, want); i != -1 {
		t.Fatalf("%s(procs=%d): element %d = %x, want %x", s.Name(), procs, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

func TestAllSchemesMatchSequentialUniform(t *testing.T) {
	l := randomLoop(500, 2000, 3, 42)
	for _, s := range All() {
		for _, procs := range []int{1, 2, 3, 4, 8, 16} {
			assertMatchesSequential(t, s, l, procs)
		}
	}
}

func TestAllSchemesMatchSequentialClustered(t *testing.T) {
	l := clusteredLoop(1000, 3000, 7)
	for _, s := range All() {
		assertMatchesSequential(t, s, l, 8)
	}
}

func TestAllSchemesMatchSequentialSparse(t *testing.T) {
	// Very sparse: 100k elements, only ~200 touched — hash's home turf.
	rng := rand.New(rand.NewSource(3))
	l := trace.NewLoop("sparse", 100000)
	hot := make([]int32, 200)
	for i := range hot {
		hot[i] = int32(rng.Intn(100000))
	}
	for i := 0; i < 5000; i++ {
		l.AddIter(hot[rng.Intn(len(hot))])
	}
	for _, s := range All() {
		assertMatchesSequential(t, s, l, 8)
	}
}

func TestSchemesWithMaxOperator(t *testing.T) {
	l := randomLoop(200, 1000, 2, 9)
	l.Op = trace.OpMax
	for _, s := range All() {
		assertMatchesSequential(t, s, l, 4)
	}
}

func TestSchemesWithMinOperator(t *testing.T) {
	l := randomLoop(200, 1000, 2, 11)
	l.Op = trace.OpMin
	for _, s := range All() {
		assertMatchesSequential(t, s, l, 4)
	}
}

func TestSchemesWithMulOperator(t *testing.T) {
	// Contributions are in (0,1]; products stay bounded. Use few refs per
	// element so products do not underflow.
	l := randomLoop(5000, 300, 1, 13)
	l.Op = trace.OpMul
	for _, s := range All() {
		assertMatchesSequential(t, s, l, 4)
	}
}

func TestEmptyLoop(t *testing.T) {
	l := trace.NewLoop("empty", 10)
	for _, s := range All() {
		got := s.Run(l, 4)
		for i, v := range got {
			if v != 0 {
				t.Errorf("%s: empty loop element %d = %g, want 0", s.Name(), i, v)
			}
		}
	}
}

func TestSingleIteration(t *testing.T) {
	l := trace.NewLoop("one", 8)
	l.AddIter(3, 3, 5)
	for _, s := range All() {
		assertMatchesSequential(t, s, l, 8) // more procs than iterations
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName of unknown scheme should error")
	}
	want := []string{"rep", "ll", "sel", "lw", "hash"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBlockBoundsPartition(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		procs := int(pRaw)%16 + 1
		prevHi := 0
		total := 0
		for p := 0; p < procs; p++ {
			lo, hi := blockBounds(n, procs, p)
			if lo != prevHi || hi < lo {
				return false
			}
			total += hi - lo
			prevHi = hi
		}
		return total == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockBoundsBalance(t *testing.T) {
	// No block may be more than one iteration larger than another.
	for _, n := range []int{0, 1, 7, 100, 1001} {
		for _, procs := range []int{1, 3, 8, 16} {
			minSz, maxSz := n, 0
			for p := 0; p < procs; p++ {
				lo, hi := blockBounds(n, procs, p)
				if sz := hi - lo; sz < minSz {
					minSz = sz
				} else if sz > maxSz {
					maxSz = sz
				}
				if hi-lo > maxSz {
					maxSz = hi - lo
				}
			}
			if maxSz-minSz > 1 {
				t.Errorf("n=%d procs=%d: block sizes differ by %d", n, procs, maxSz-minSz)
			}
		}
	}
}

func TestOwnerConsistentWithBlockBounds(t *testing.T) {
	f := func(idxRaw uint16, nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		procs := int(pRaw)%16 + 1
		idx := int32(int(idxRaw) % n)
		o := owner(idx, n, procs)
		lo, hi := blockBounds(n, procs, o)
		return int(idx) >= lo && int(idx) < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLocalWriteReplicationFactor pins lw's inspector through the lab's
// IterLists: the replication factor (owner lists per iteration, the
// paper's effective mobility) of aligned, spread and empty loops.
func TestLocalWriteReplicationFactor(t *testing.T) {
	replication := func(l *trace.Loop, procs int) float64 {
		if l.NumIters() == 0 {
			return 0
		}
		total := 0
		for _, lst := range (LocalWrite{}).IterLists(l, procs) {
			total += len(lst)
		}
		return float64(total) / float64(l.NumIters())
	}
	// A loop where every iteration touches one element owned by one
	// processor has replication factor exactly 1.
	l := trace.NewLoop("aligned", 64)
	for i := 0; i < 64; i++ {
		l.AddIter(int32(i))
	}
	if rf := replication(l, 8); rf != 1 {
		t.Errorf("aligned replication factor = %g, want 1", rf)
	}
	// A loop where every iteration touches the first element of every
	// processor's partition has replication factor = procs.
	l2 := trace.NewLoop("spread", 64)
	for i := 0; i < 10; i++ {
		l2.AddIter(0, 8, 16, 24, 32, 40, 48, 56)
	}
	if rf := replication(l2, 8); rf != 8 {
		t.Errorf("spread replication factor = %g, want 8", rf)
	}
	if rf := replication(trace.NewLoop("e", 4), 2); rf != 0 {
		t.Errorf("empty loop replication factor = %g, want 0", rf)
	}
}

func TestSelectiveClassify(t *testing.T) {
	// 4 elements, 2 procs, 4 iterations: iterations 0,1 -> proc 0;
	// 2,3 -> proc 1. Element 0 touched by both (conflict), element 1 only
	// by proc 0, element 3 only by proc 1, element 2 untouched.
	l := trace.NewLoop("cls", 4)
	l.AddIter(0, 1)
	l.AddIter(1)
	l.AddIter(0, 3)
	l.AddIter(3)
	remap, n := Selective{}.classify(l, 2, nil)
	if n != 1 {
		t.Fatalf("numConflict = %d, want 1", n)
	}
	if remap[0] != 0 {
		t.Errorf("element 0 should be conflict slot 0, got %d", remap[0])
	}
	for _, e := range []int{1, 2, 3} {
		if remap[e] != -1 {
			t.Errorf("element %d should be exclusive, got remap %d", e, remap[e])
		}
	}
}

func TestHashTableBasics(t *testing.T) {
	ht := newHashTable(4)
	probes, ins := ht.update(42, 1.5, trace.OpAdd)
	if !ins || probes < 1 {
		t.Errorf("first update: probes=%d inserted=%v", probes, ins)
	}
	_, ins = ht.update(42, 2.5, trace.OpAdd)
	if ins {
		t.Error("second update of same key should not insert")
	}
	i, _ := ht.slot(42)
	if ht.vals[i] != 4.0 {
		t.Errorf("accumulated value = %g, want 4.0", ht.vals[i])
	}
	if ht.n != 1 {
		t.Errorf("entry count = %d, want 1", ht.n)
	}
}

func TestHashTableManyKeysNoLoss(t *testing.T) {
	ht := newHashTable(100)
	for k := int32(0); k < 100; k++ {
		ht.update(k, 1, trace.OpAdd)
	}
	for k := int32(0); k < 100; k++ {
		i, _ := ht.slot(k)
		if ht.keys[i] != k || ht.vals[i] != 1 {
			t.Fatalf("key %d lost or wrong: slot key=%d val=%g", k, ht.keys[i], ht.vals[i])
		}
	}
}

func TestRunPanicsOnZeroProcs(t *testing.T) {
	l := randomLoop(10, 10, 1, 1)
	for _, s := range All() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for procs=0", s.Name())
				}
			}()
			s.Run(l, 0)
		}()
	}
}

func TestQuickAllSchemesAgree(t *testing.T) {
	// Property: on arbitrary small patterns, every scheme returns its
	// exact answer's bits.
	f := func(pat []uint16, procsRaw uint8) bool {
		if len(pat) == 0 {
			return true
		}
		procs := int(procsRaw)%8 + 1
		n := 64
		l := trace.NewLoop("q", n)
		for i := 0; i+1 < len(pat); i += 2 {
			l.AddIter(int32(int(pat[i])%n), int32(int(pat[i+1])%n))
		}
		for _, s := range All() {
			if bitsEqual(s.Run(l, procs), exactAnswer(s, l, procs)) != -1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
