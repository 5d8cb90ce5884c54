package reduction_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// llGoldenLoops is a churn-shaped population: workloads.MixedSpecs'
// six regimes, eight patterns each, every one with its own seed and a
// dimension jitter, at the claims benchmark's churn scale. It spans both
// sides of ll's density predicate at every processor count below.
func llGoldenLoops() []*trace.Loop {
	specs := workloads.MixedSpecs()
	loops := make([]*trace.Loop, 0, 8*len(specs))
	for i := 0; i < 8*len(specs); i++ {
		spec := specs[i%len(specs)]
		spec.Dim += 64 * (i / len(specs))
		spec.Seed = 7<<20 + int64(i)
		loops = append(loops, workloads.Generate(fmt.Sprintf("churn-%02d", i), spec, 0.25))
	}
	return loops
}

// bitsDigest is FNV-64a over the Float64bits of every element, in order.
func bitsDigest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestLinkedListGolden runs ll over the churn-shaped population × {add,
// mul, max, min} × procs {1, 2, 3, 8}, once through one pooled Exec
// shared by every run (recycled buffers with stale contents) and once
// through the nil Exec, and compares the digest of each output's bits
// with testdata/ll_bits.golden. The golden was recorded by this same
// loop when trace.Value moved its contributions to the exact grid; it
// pins ll's per-element fold order for mul, the one operator that still
// rounds. There is deliberately no -update path. Add, max and min are
// exact on the grid, so their rows must also equal RunSequential's bits
// at every processor count, pooled or not.
func TestLinkedListGolden(t *testing.T) {
	ex := &reduction.Exec{Pool: reduction.NewBufferPool()}
	var b strings.Builder
	var out []float64
	for _, base := range llGoldenLoops() {
		for _, op := range []trace.Op{trace.OpAdd, trace.OpMul, trace.OpMax, trace.OpMin} {
			l := base.Clone()
			l.Op = op
			for _, procs := range []int{1, 2, 3, 8} {
				out = reduction.LinkedList{}.RunInto(l, procs, ex, out)
				pooled := bitsDigest(out)
				cold := bitsDigest(reduction.LinkedList{}.Run(l, procs))
				if seq := bitsDigest(l.RunSequential()); op != trace.OpMul && (pooled != seq || cold != seq) {
					t.Errorf("%s %v p%d: ll's bits differ from RunSequential's (pooled=%016x nil=%016x seq=%016x)", l.Name, op, procs, pooled, cold, seq)
				}
				fmt.Fprintf(&b, "%s %v p%d pooled=%016x nil=%016x\n", l.Name, op, procs, pooled, cold)
			}
		}
	}

	want, err := os.ReadFile("testdata/ll_bits.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("ll's bits diverged from the recorded golden at line %d: got %q", i+1, gl[i])
			}
		}
		t.Fatal("output shorter than the golden")
	}
}
