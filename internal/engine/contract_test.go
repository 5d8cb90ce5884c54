package engine

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/reduction"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// bitDiffs counts the elements of got whose bits differ from want's.
func bitDiffs(got, want []float64) int {
	if len(got) != len(want) {
		return len(want)
	}
	d := 0
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			d++
		}
	}
	return d
}

// Legs of repeatAnswers: the public entry and the queue-only entry.
const (
	legCaller = iota
	legWorker
	legs
)

// repeatAnswers submits l 64 times to e, 32 per leg: one after another
// through Submit, which answers a resident loop on the caller; then one
// after another through SubmitFingerprinted, which always queues for a
// worker. The answers come back per leg.
func repeatAnswers(t *testing.T, e *Engine, l *trace.Loop) [legs][]Result {
	t.Helper()
	var out [legs][]Result
	for i := 0; i < 32; i++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		out[legCaller] = append(out[legCaller], res)
	}
	fp := l.Fingerprint()
	for i := 0; i < 32; i++ {
		h, err := e.SubmitFingerprinted(l, fp, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[legWorker] = append(out[legWorker], h.Wait())
	}
	return out
}

// TestRepeatAnswersAreBitIdentical is the numerical contract's enforced
// clause: the bits of a direct execution depend on the loop and procs
// only — not on when it ran, what ran before it, or which scheme
// answered. Every one of 64 submissions of a loop returns the first
// answer's bits, and those are ll's (rep, ll, sel and hash fold in one
// order) or, from lw, RunSequential's — with residency on too, since a
// resident holds the bits of the direct execution that armed it, on the
// caller and on a worker alike. On the exact grid the cuts cannot show,
// so every answer to an add loop is also RunSequential's.
func TestRepeatAnswersAreBitIdentical(t *testing.T) {
	loops := workloads.MixedSet(0.25)
	for _, procs := range []int{2, 4, 8} {
		for _, simplify := range []bool{false, true} {
			e := mustNew(t, Config{Workers: 2, Platform: core.DefaultPlatform(procs), DisableSimplify: !simplify})
			var resident [legs]int
			for _, l := range loops {
				seq := l.RunSequential()
				// first holds the first answer each executing scheme gave;
				// "simplify" is a resident serve.
				first := map[string][]float64{}
				answers := repeatAnswers(t, e, l)
				// Whichever scheme answered first, its answer is the
				// loop's one direct answer, and every resident holds it.
				want, ref := reduction.LinkedList{}.Run(l, procs), "ll's answer"
				if answers[legCaller][0].Scheme == "lw" {
					want, ref = l.RunSequential(), "RunSequential"
				}
				for leg, results := range answers {
					for i, res := range results {
						if l.Op == trace.OpAdd {
							if d := bitDiffs(res.Values, seq); d > 0 {
								t.Errorf("procs=%d simplify=%v %s: leg %d submission %d (%s) differs from RunSequential in %d of %d elements",
									procs, simplify, l.Name, leg, i, res.Scheme, d, len(seq))
							}
						}
						if _, seen := first[res.Scheme]; !seen {
							first[res.Scheme] = res.Values
						}
						if d := bitDiffs(res.Values, want); d > 0 {
							t.Errorf("procs=%d simplify=%v %s: leg %d submission %d (%s) differs from %s in %d of %d elements",
								procs, simplify, l.Name, leg, i, res.Scheme, ref, d, len(want))
							break
						}
						// The caller leg counts only answers served on the
						// caller, which never queued.
						if res.Why == residentWhy && (leg != legCaller || res.QueueWait == 0) {
							resident[leg]++
						}
					}
				}
				if !simplify && len(first) != 1 {
					t.Errorf("procs=%d %s: %d schemes answered one unchanging loop", procs, l.Name, len(first))
				}
			}
			if simplify && (resident[legCaller] == 0 || resident[legWorker] == 0) {
				t.Errorf("procs=%d: resident answers per leg (caller, worker) = %v; a leg checked nothing", procs, resident)
			}
			if !simplify && resident != [legs]int{} {
				t.Errorf("procs=%d: resident answers %v with simplification off", procs, resident)
			}
			e.Close()
		}
	}
}
