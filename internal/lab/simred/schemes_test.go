package simred

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/vtime"
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

// TestEverySchemeHasASimulator replaces the guarantee the Simulate method
// on reduction.Scheme used to give at compile time: a scheme added to the
// library without a virtual-time twin (or a twin left behind by a removed
// scheme) fails here, in library order.
func TestEverySchemeHasASimulator(t *testing.T) {
	names := reduction.Names()
	for _, name := range names {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("scheme %q: %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("ByName(%q) returned the simulator of %q", name, s.Name())
		}
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("%d simulators for %d schemes", len(all), len(names))
	}
	for i, s := range all {
		if s.Name() != names[i] {
			t.Errorf("simulator %d is %q, library order has %q", i, s.Name(), names[i])
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName must reject an unknown scheme")
	}
}

// TestHostDescriptorMatchesTable1 pins the one number the service and the
// lab share: the host descriptor's default L2 is the simulated machine's
// (Table 1), 512 KB. When ROADMAP 3(b) calibrates the descriptor the two
// part ways on purpose and this test goes with them.
func TestHostDescriptorMatchesTable1(t *testing.T) {
	for _, procs := range []int{1, 4, 8} {
		host := core.DefaultPlatform(procs).Cfg.L2Bytes
		if lab := vtime.DefaultConfig().L2Bytes; host != lab || host != 512<<10 {
			t.Errorf("procs=%d: host L2 %d, Table 1 L2 %d, want both %d", procs, host, lab, 512<<10)
		}
	}
}

func TestSimulateBreakdownShapes(t *testing.T) {
	l := randomLoop(2000, 8000, 2, 21)
	for _, s := range All() {
		m := vtime.NewMachine(8, vtime.DefaultConfig())
		m.EnableSharingTracking()
		b := s.Simulate(l, m)
		if b.Loop <= 0 {
			t.Errorf("%s: Loop phase must be positive, got %g", s.Name(), b.Loop)
		}
		if b.Init < 0 || b.Merge < 0 {
			t.Errorf("%s: negative phase: %+v", s.Name(), b)
		}
		if m.Now() != b.Total() {
			t.Errorf("%s: machine clock %g != breakdown total %g", s.Name(), m.Now(), b.Total())
		}
	}
}

func TestSimulateLocalWriteHasNoMerge(t *testing.T) {
	l := randomLoop(1000, 4000, 2, 5)
	m := vtime.NewMachine(8, vtime.DefaultConfig())
	b := LocalWrite{}.Simulate(l, m)
	if b.Merge != 0 {
		t.Errorf("lw merge = %g, want 0", b.Merge)
	}
}

func TestSimulateRepInitScalesWithArray(t *testing.T) {
	small := randomLoop(1000, 1000, 1, 1)
	big := randomLoop(100000, 1000, 1, 1)
	mS := vtime.NewMachine(4, vtime.DefaultConfig())
	mB := vtime.NewMachine(4, vtime.DefaultConfig())
	bS := Rep{}.Simulate(small, mS)
	bB := Rep{}.Simulate(big, mB)
	if bB.Init < 10*bS.Init {
		t.Errorf("rep Init should scale ~linearly with array size: small=%g big=%g", bS.Init, bB.Init)
	}
}

func TestSimulateHashBeatsRepWhenVerySparse(t *testing.T) {
	// Spice-like: huge array, tiny touched set. hash must beat rep in
	// virtual time (this is the paper's headline qualitative claim for
	// hash reductions).
	rng := rand.New(rand.NewSource(17))
	l := trace.NewLoop("spicey", 200000)
	l.WorkPerIter = 50
	hot := make([]int32, 300)
	for i := range hot {
		hot[i] = int32(rng.Intn(200000))
	}
	for i := 0; i < 4000; i++ {
		l.AddIter(hot[rng.Intn(len(hot))], hot[rng.Intn(len(hot))])
	}
	mh := vtime.NewMachine(8, vtime.DefaultConfig())
	mr := vtime.NewMachine(8, vtime.DefaultConfig())
	th := Hash{}.Simulate(l, mh).Total()
	tr := Rep{}.Simulate(l, mr).Total()
	if th >= tr {
		t.Errorf("hash (%g) should beat rep (%g) on very sparse pattern", th, tr)
	}
}

func TestSimulateRepBeatsHashWhenDense(t *testing.T) {
	// Small dense array with high contention: rep must beat hash.
	l := clusteredLoop(512, 20000, 23)
	l.WorkPerIter = 5
	mh := vtime.NewMachine(8, vtime.DefaultConfig())
	mr := vtime.NewMachine(8, vtime.DefaultConfig())
	th := Hash{}.Simulate(l, mh).Total()
	tr := Rep{}.Simulate(l, mr).Total()
	if tr >= th {
		t.Errorf("rep (%g) should beat hash (%g) on dense contended pattern", tr, th)
	}
}
