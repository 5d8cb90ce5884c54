package adapt

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// decisionGolden is RecommendSimplify's and SimplifySeedWorthwhile's
// output over a fixed grid of single-loop inputs — the only inputs the
// engine produces, since every queued job is its own execution. It was
// recorded from the boundary as it stood while it still weighed a batch
// occupancy, with every input at occupancy 1, and has no -update path:
// if a line moves, the boundary's decisions changed.
const decisionGolden = "testdata/simplify_decisions.golden"

// verdictName names a verdict in the golden.
func verdictName(v simplifyVerdict) string {
	switch v {
	case verdictColdCache:
		return "cold"
	case verdictWins:
		return "wins"
	case verdictWithinMargin:
		return "margin"
	default:
		return "degenerate"
	}
}

// decisionInputs is the golden's RecommendSimplify grid: the
// single-member geometries the engine's loops and the tests in this
// package use, every cache warmth from cold to fully cached, three
// constant-run fractions, and the degenerate corners.
func decisionInputs() []SimplifyInput {
	var ins []SimplifyInput
	add := func(members, segs, unique, cached, refs, elems int, crf float64) {
		ins = append(ins, SimplifyInput{
			Members: members, Segments: segs, Unique: unique, CachedTasks: cached,
			RefsPerMember: refs, NumElems: elems, ConstRunFrac: crf,
		})
	}
	geoms := [][2]int{{32768, 2048}, {24000, 16000}, {4096, 512}, {1000, 100000}, {1 << 20, 4096}}
	for _, g := range geoms {
		for _, segs := range []int{1, 4, 8, 16} {
			for _, unique := range []int{segs, (segs + 1) / 2} {
				for _, cached := range []int{0, 1, segs / 2, segs - 1, segs, segs + 1} {
					for _, crf := range []float64{0, 0.5, 0.95} {
						add(1, segs, unique, cached, g[0], g[1], crf)
					}
				}
			}
		}
	}
	add(0, 8, 8, 8, 32768, 2048, 0)
	add(1, 0, 0, 0, 32768, 2048, 0)
	add(1, 8, 8, 8, 0, 2048, 0)
	add(1, 8, 8, 7, 32768, 2048, 0) // simplify_test.go's warm singleton
	return ins
}

// decisionLines renders the golden.
func decisionLines() string {
	th := DefaultSimplifyThresholds()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, in := range decisionInputs() {
		ok, r := RecommendSimplify(in, th)
		fmt.Fprintf(&b, "recommend members=%d segs=%d unique=%d cached=%d refs=%d elems=%d crf=%s: %v %s direct=%s simplified=%s\n",
			in.Members, in.Segments, in.Unique, in.CachedTasks, in.RefsPerMember, in.NumElems, f(in.ConstRunFrac),
			ok, verdictName(r.verdict), f(r.direct), f(r.simplified))
	}
	for _, refs := range []int{0, 1000, 4096, 24000, 32768, 1 << 20} {
		for _, elems := range []int{1, 512, 2048, 16000, 100000} {
			for _, segs := range []int{0, 1, 4, 8, 16, 64} {
				fmt.Fprintf(&b, "seed refs=%d elems=%d segs=%d: %v\n",
					refs, elems, segs, SimplifySeedWorthwhile(refs, elems, segs, th))
			}
		}
	}
	return b.String()
}

// TestSimplifyDecisionGolden holds the boundary's decisions on the
// single-loop grid to the recorded ones, line by line.
func TestSimplifyDecisionGolden(t *testing.T) {
	want, err := os.ReadFile(decisionGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(decisionLines(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
}
