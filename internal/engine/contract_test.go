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

// repeatAnswers submits l 64 times to e: 32 one after another, then 32
// at once behind parked workers so they fuse into batches.
func repeatAnswers(t *testing.T, e *Engine, l *trace.Loop) []Result {
	t.Helper()
	var out []Result
	for i := 0; i < 32; i++ {
		res, err := e.Submit(l)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	releases := make([]func(), e.cfg.Workers)
	for i := range releases {
		release, err := e.Hold()
		if err != nil {
			t.Fatal(err)
		}
		releases[i] = release
	}
	handles := make([]*Handle, 32)
	for i := range handles {
		h, err := e.SubmitAsync(l)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for _, release := range releases {
		release()
	}
	fused := false
	for _, h := range handles {
		res := h.Wait()
		fused = fused || res.BatchSize > 1
		out = append(out, res)
	}
	if !fused {
		t.Errorf("%s: no concurrent submission fused into a batch", l.Name)
	}
	return out
}

// TestRepeatAnswersAreBitIdentical is the numerical contract's enforced
// clause: the bits of a direct execution depend on the loop and procs
// only — not on when it ran, what ran before it, how many jobs shared its
// batch, or which scheme answered. With simplification off every one of
// 64 submissions of a loop returns the first answer's bits, and those are
// ll's (rep, ll, sel and hash fold in one order) or, from lw,
// RunSequential's; with it on, the answers served from segment sums agree
// among themselves (they fold the same pieces in the same order, but cut
// at segments, not processor blocks).
func TestRepeatAnswersAreBitIdentical(t *testing.T) {
	loops := workloads.MixedSet(0.25)
	for _, procs := range []int{2, 4, 8} {
		for _, simplify := range []bool{false, true} {
			e := mustNew(t, Config{Workers: 2, Platform: core.DefaultPlatform(procs), DisableSimplify: !simplify})
			resident := 0
			for _, l := range loops {
				// first holds the first answer each executing scheme gave;
				// "simplify" is the segment-sum path.
				first := map[string][]float64{}
				for i, res := range repeatAnswers(t, e, l) {
					want, seen := first[res.Scheme]
					ref := "the first " + res.Scheme + " answer"
					if !seen {
						first[res.Scheme] = res.Values
						if simplify {
							continue
						}
						// Whichever scheme answered, the first answer is
						// the loop's one direct answer.
						want, ref = reduction.LinkedList{}.Run(l, procs), "ll's answer"
						if res.Scheme == "lw" {
							want, ref = l.RunSequential(), "RunSequential"
						}
					}
					if d := bitDiffs(res.Values, want); d > 0 {
						t.Errorf("procs=%d simplify=%v %s: submission %d (%s) differs from %s in %d of %d elements",
							procs, simplify, l.Name, i, res.Scheme, ref, d, len(want))
						break
					}
					if res.Why == residentWhy {
						resident++
					}
				}
				if !simplify && len(first) != 1 {
					t.Errorf("procs=%d %s: %d schemes answered one unchanging loop", procs, l.Name, len(first))
				}
			}
			if simplify && resident == 0 {
				t.Errorf("procs=%d: no answer came from a resident result; the simplified half checked nothing", procs)
			}
			e.Close()
		}
	}
}
