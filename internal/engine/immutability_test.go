package engine

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// The immutability rule, with the in-process adversary as its test: a
// resident loop mutated in place through Flat and resubmitted is checked
// at the sampled positions only — Fingerprint's and each segment's
// pattern.HashRefs'. SameRefs against the retained subscripts compares a
// slice with itself, since the cache retains the loop's own storage. So
// a mutation at a sampled position is recomputed by a worker, and one
// anywhere else is answered with the previous content's resident total.
// The contract is documented (Engine.Submit, trace.Loop.Flat), not
// detected.

// sampledPositions reports, per reference position of l, whether
// changing it alone moves l's fingerprint (fp) or its segment's hash
// (seg).
func sampledPositions(l *trace.Loop, segIters int) (fp, seg []bool) {
	offs, refs := l.Flat()
	fp, seg = make([]bool, len(refs)), make([]bool, len(refs))
	base := l.Fingerprint()
	for it := 0; it < l.NumIters(); it += segIters {
		lo, hi := int(offs[it]), int(offs[min(it+segIters, l.NumIters())])
		h := pattern.HashRefs(refs[lo:hi])
		for p := lo; p < hi; p++ {
			old := refs[p]
			refs[p] = (old + 1) % int32(l.NumElems)
			fp[p], seg[p] = l.Fingerprint() != base, pattern.HashRefs(refs[lo:hi]) != h
			refs[p] = old
		}
	}
	return fp, seg
}

func TestMutatedInPlaceResident(t *testing.T) {
	for _, tc := range []struct {
		name string
		pick func(fp, seg bool) bool
		// stale: the answer is the previous content's total.
		stale bool
	}{
		{"unsampled", func(fp, seg bool) bool { return !fp && !seg }, true},
		{"segment-sampled", func(fp, seg bool) bool { return !fp && seg }, false},
		{"fingerprint-sampled", func(fp, seg bool) bool { return fp }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := simpLoop("adversary-"+tc.name, 512, 256, 16, 31)
			before := l.RunSequential()
			e := mustNew(t, Config{Workers: 1})
			defer e.Close()
			seedResident(t, e, l, before)

			fp, seg := sampledPositions(l, reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs))
			p := -1
			for i := len(fp) - 1; i >= 0 && p < 0; i-- {
				if tc.pick(fp[i], seg[i]) {
					p = i
				}
			}
			if p < 0 {
				t.Fatal("no position of the wanted kind")
			}
			_, refs := l.Flat()
			refs[p] = (refs[p] + 1) % int32(l.NumElems)
			after := l.RunSequential()
			if bitDiffs(after, before) == 0 {
				t.Fatal("the mutation does not change the answer")
			}

			base := e.Stats()
			res, err := e.Submit(l)
			if err != nil {
				t.Fatal(err)
			}
			served := e.Stats().Sub(base).Schemes[residentScheme]
			if tc.stale {
				if res.Why != residentWhy || bitDiffs(res.Values, before) != 0 || served != 1 {
					t.Fatalf("%s on the caller, %d elements off the previous total; want the previous total, served resident",
						res.Why, bitDiffs(res.Values, before))
				}
				return
			}
			if res.Why == residentWhy || served != 0 {
				t.Fatalf("a mutation at sampled position %d was answered from the resident total", p)
			}
			if d := bitDiffs(res.Values, after); d > 0 {
				t.Fatalf("the mutated loop's answer differs from its RunSequential in %d of %d elements", d, len(after))
			}
		})
	}
}

// TestSealedResident: a sealed loop (the network server's canonical
// copies) whose own storage armed the resident is verified by identity,
// without the segment hashes. An unsealed loop with equal content is
// still verified in full, and so is an unsealed loop over the very same
// storage. The price of skipping the hashes is pinned like the
// "unsampled" case above: once the sealed loop is edited through Flat at
// a segment-sampled position, it is still answered with the armed bits.
func TestSealedResident(t *testing.T) {
	l := simpLoop("sealed", 512, 256, 16, 37)
	l.Seal()
	before := l.RunSequential()
	e := mustNew(t, Config{Workers: 1})
	defer e.Close()
	seedResident(t, e, l, before)

	submit := func(name string, m *trace.Loop, want []float64, resident bool) {
		t.Helper()
		base := e.Stats()
		res, err := e.Submit(m)
		if err != nil {
			t.Fatal(err)
		}
		served := e.Stats().Sub(base).Schemes[residentScheme]
		if got := res.Why == residentWhy && served == 1; got != resident {
			t.Fatalf("%s: served resident=%v (%s), want %v", name, got, res.Why, resident)
		}
		if d := bitDiffs(res.Values, want); d > 0 {
			t.Fatalf("%s: %d of %d elements off the wanted bits", name, d, len(want))
		}
	}
	submit("sealed", l, before, true)
	submit("unsealed clone", l.Clone(), before, true)

	fp, seg := sampledPositions(l, reduction.DefaultSegIters(l.NumIters(), e.cfg.Platform.Procs))
	p := -1
	for i := len(fp) - 1; i >= 0 && p < 0; i-- {
		if !fp[i] && seg[i] {
			p = i
		}
	}
	if p < 0 {
		t.Fatal("no segment-sampled position outside the fingerprint's samples")
	}
	offs, refs := l.Flat()
	refs[p] = (refs[p] + 1) % int32(l.NumElems)
	// An unsealed loop over the sealed loop's own storage: identity holds
	// for it too, so only its segment hashes can see the edit.
	var shared trace.Loop
	shared.NumElems, shared.ElemBytes, shared.Op = l.NumElems, l.ElemBytes, l.Op
	shared.SetFlatUnchecked(offs, refs)
	after := shared.RunSequential()
	if bitDiffs(after, before) == 0 {
		t.Fatal("the edit does not change the answer")
	}
	if shared.Fingerprint() != l.Fingerprint() {
		t.Fatal("the edit moved the fingerprint; the unsealed loop would miss the entry")
	}

	submit("sealed, edited through Flat", l, before, true)
	submit("unsealed over the same storage", &shared, after, false)
	edited := l.Clone()
	submit("unsealed copy of the edit", edited, after, false)
}
