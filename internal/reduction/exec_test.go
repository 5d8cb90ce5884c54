package reduction

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func assertSameResult(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		diff := math.Abs(got[i] - want[i])
		if diff > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: element %d = %g, want %g", name, i, got[i], want[i])
		}
	}
}

// TestRunIntoMatchesRunWithPooledReuse runs every scheme repeatedly through
// one Exec so the second and third executions consume recycled buffers
// (including buffers recycled from *other* schemes and differently sized
// loops), and checks each result against the cold Run path.
func TestRunIntoMatchesRunWithPooledReuse(t *testing.T) {
	loops := []*trace.Loop{
		randomLoop(500, 2000, 3, 1),
		clusteredLoop(900, 1500, 2),
		randomLoop(64, 100, 1, 3),
	}
	ex := &Exec{Pool: NewBufferPool()}
	for round := 0; round < 3; round++ {
		for _, s := range All() {
			for _, l := range loops {
				want := s.Run(l, 4)
				got := s.RunInto(l, 4, ex, nil)
				assertSameResult(t, s.Name(), got, want)
			}
		}
	}
}

// TestRunIntoReusesDst verifies results land in a caller-provided array of
// sufficient capacity, with stale contents fully overwritten.
func TestRunIntoReusesDst(t *testing.T) {
	l := clusteredLoop(300, 800, 5)
	want := l.RunSequential()
	ex := &Exec{Pool: NewBufferPool()}
	dst := make([]float64, 512)
	for i := range dst {
		dst[i] = math.NaN() // poison: any unwritten element fails the check
	}
	for _, s := range All() {
		got := s.RunInto(l, 4, ex, dst)
		if &got[0] != &dst[0] {
			t.Errorf("%s: result does not alias dst", s.Name())
		}
		assertSameResult(t, s.Name(), got, want)
		for i := range dst[:l.NumElems] {
			dst[i] = math.NaN()
		}
	}
}

// TestHashSurvivesSkewedIterBounds regresses the table-overflow hazard:
// the static partition cuts iterations, not references, so skewed
// iteration lengths can put nearly every reference into one processor's
// block. Its table must be sized for the block it actually executes — a
// table sized from the per-processor average would fill up and probe
// forever.
func TestHashSurvivesSkewedIterBounds(t *testing.T) {
	// 3000 empty iterations, then 1000 of 64 references each: the last of
	// 4 blocks holds all 64000 references and ~55000 distinct keys, where
	// the per-processor average (16000 references) would size a
	// 32768-slot table.
	const elems, refsPerIter = 200000, 64
	rng := rand.New(rand.NewSource(31))
	l := trace.NewLoop("skewed", elems)
	for i := 0; i < 3000; i++ {
		l.AddIter()
	}
	refs := make([]int32, refsPerIter)
	for i := 0; i < 1000; i++ {
		for k := range refs {
			refs[k] = int32(rng.Intn(elems))
		}
		l.AddIter(refs...)
	}
	if lo, hi := blockBounds(l.NumIters(), 4, 3); l.RefsInRange(lo, hi) != l.TotalRefs() {
		t.Fatalf("last block holds %d of %d references; the skew is gone", l.RefsInRange(lo, hi), l.TotalRefs())
	}
	got := Hash{}.RunInto(l, 4, nil, nil)
	assertSameResult(t, "hash+skew", got, l.RunSequential())
}

func TestBufferPoolRoundTrip(t *testing.T) {
	bp := NewBufferPool()
	f := bp.Float64(100)
	if len(f) != 100 || cap(f) != 128 {
		t.Fatalf("Float64(100): len=%d cap=%d, want 100/128", len(f), cap(f))
	}
	f[0] = 42
	bp.PutFloat64(f)
	g := bp.Float64(90)
	if len(g) != 90 || cap(g) != 128 {
		t.Fatalf("recycled Float64(90): len=%d cap=%d, want 90/128", len(g), cap(g))
	}

	i := bp.Int32(1)
	if len(i) != 1 || cap(i) != 1 {
		t.Fatalf("Int32(1): len=%d cap=%d, want 1/1", len(i), cap(i))
	}
	bp.PutInt32(i)

	// Nil pool degenerates to plain allocation and ignores returns.
	var nilPool *BufferPool
	n := nilPool.Float64(10)
	if len(n) != 10 {
		t.Fatalf("nil pool Float64(10): len=%d", len(n))
	}
	nilPool.PutFloat64(n)
	nilPool.PutInt32(nilPool.Int32(3))
}

// TestBufferPoolWarmRoundTripAllocsNothing: a warm get and put allocate
// nothing for either element type. Put reuses an emptied box instead of
// boxing the slice header afresh, which cost one allocation per Put.
func TestBufferPoolWarmRoundTripAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
	}
	bp := NewBufferPool()
	bp.PutFloat64(bp.Float64(3100))
	bp.PutInt32(bp.Int32(3100))
	if a := testing.AllocsPerRun(100, func() { bp.PutFloat64(bp.Float64(3100)) }); a != 0 {
		t.Errorf("a warm float64 round trip allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { bp.PutInt32(bp.Int32(3100)) }); a != 0 {
		t.Errorf("a warm int32 round trip allocates %v times, want 0", a)
	}
}

func TestSizeClass(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := sizeClass(n); got != want {
			t.Errorf("sizeClass(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestDefaultMergeBlockReadsHostDescriptor pins the fallback merge block
// (no Exec, or no MergeBlockElems) to the host descriptor's default L2:
// 512 KB, defined once in core.DefaultPlatform. The lab's
// TestHostDescriptorMatchesTable1 pins the same number against the
// simulated machine.
func TestDefaultMergeBlockReadsHostDescriptor(t *testing.T) {
	for _, procs := range []int{1, 4, 8} {
		if got := core.DefaultPlatform(procs).Cfg.L2Bytes; got != 512<<10 {
			t.Fatalf("host descriptor default L2 = %d, want %d", got, 512<<10)
		}
		want := MergeBlockForCache(512<<10, procs)
		if got := (*Exec)(nil).mergeBlock(procs); got != want {
			t.Errorf("procs=%d: nil Exec merge block %d, want %d", procs, got, want)
		}
		if got := (&Exec{}).mergeBlock(procs); got != want {
			t.Errorf("procs=%d: zero Exec merge block %d, want %d", procs, got, want)
		}
	}
}
