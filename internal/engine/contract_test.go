package engine

import (
	"math"
	"testing"

	"repro/internal/core"
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
// through Submit, which answers a resident loop on the caller (through
// submitDirect instead when direct is set); then one after another
// through SubmitFingerprinted, which always executes on a worker. The
// answers come back per leg.
func repeatAnswers(t *testing.T, e *Engine, l *trace.Loop, direct bool) [legs][]Result {
	t.Helper()
	var out [legs][]Result
	submit := e.Submit
	if direct {
		submit = func(l *trace.Loop) (Result, error) { return submitDirect(e, l) }
	}
	for i := 0; i < 32; i++ {
		res, err := submit(l)
		if err != nil {
			t.Fatal(err)
		}
		out[legCaller] = append(out[legCaller], res)
	}
	for i := 0; i < 32; i++ {
		res, err := submitDirect(e, l)
		if err != nil {
			t.Fatal(err)
		}
		out[legWorker] = append(out[legWorker], res)
	}
	return out
}

// TestRepeatAnswersAreBitIdentical is the numerical contract's enforced
// clause: every served answer is RunSequential's bits — not dependent on
// when the job ran, what ran before it, which scheme answered or
// Platform.Procs. Every one of 64 submissions of each standing loop
// returns them, whether every job runs direct or the caller leg is
// answered from a resident, and one unchanging loop is executed by one
// scheme.
func TestRepeatAnswersAreBitIdentical(t *testing.T) {
	loops := workloads.MixedSet(0.25)
	for _, procs := range []int{2, 4, 8} {
		for _, simplify := range []bool{false, true} {
			e := mustNew(t, Config{Workers: 2, Platform: core.DefaultPlatform(procs)})
			var resident [legs]int
			for _, l := range loops {
				want := l.RunSequential()
				// schemes holds every scheme that answered; "simplify" is a
				// resident serve.
				schemes := map[string]bool{}
				answers := repeatAnswers(t, e, l, !simplify)
				for leg, results := range answers {
					for i, res := range results {
						schemes[res.Scheme] = true
						if d := bitDiffs(res.Values, want); d > 0 {
							t.Errorf("procs=%d simplify=%v %s: leg %d submission %d (%s) differs from RunSequential in %d of %d elements",
								procs, simplify, l.Name, leg, i, res.Scheme, d, len(want))
							break
						}
						if res.Why == residentWhy {
							resident[leg]++
						}
					}
				}
				if !simplify && len(schemes) != 1 {
					t.Errorf("procs=%d %s: %d schemes answered one unchanging loop", procs, l.Name, len(schemes))
				}
			}
			if simplify && resident[legCaller] == 0 {
				t.Errorf("procs=%d: no resident answer on the caller leg; it checked nothing", procs)
			}
			if (!simplify && resident[legCaller] != 0) || resident[legWorker] != 0 {
				t.Errorf("procs=%d simplify=%v: resident answers per leg (caller, worker) = %v; a direct submission was answered resident", procs, simplify, resident)
			}
			e.Close()
		}
	}
}
