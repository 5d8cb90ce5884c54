// Command reduxsel explores adaptive reduction-scheme selection on a
// synthetic pattern given from the command line.
package main

import (
	"flag"
	"fmt"

	"repro/internal/lab/simred"
	"repro/internal/vtime"
	"repro/internal/workloads"
)

func main() {
	dim := flag.Int("dim", 100000, "reduction array dimension")
	sp := flag.Float64("sp", 10, "sparsity percent (touched fraction)")
	chr := flag.Float64("chr", 0.5, "contention ratio (refs / (8*dim))")
	mo := flag.Int("mo", 2, "mobility (reduction refs per iteration)")
	locality := flag.Float64("locality", 0.8, "iteration-space locality 0..1")
	skew := flag.Float64("skew", 0.5, "hot-spot skew")
	procs := flag.Int("procs", 8, "processor count")
	flag.Parse()

	l := workloads.Generate("cli", workloads.PatternSpec{
		Dim: *dim, SPPercent: *sp, CHR: *chr, MO: *mo,
		Locality: *locality, Skew: *skew, Work: 30, Invocations: 50, Seed: 1,
	}, 1)
	sel := simred.Select(l, *procs, vtime.Config{})
	fmt.Printf("profile: %v\n", sel.Profile)
	fmt.Printf("recommended: %s — %s\n", sel.Recommendation.Scheme, sel.Recommendation.Why)
	fmt.Println("measured ranking (virtual time):")
	for _, m := range sel.Ranking {
		fmt.Printf("  %-5s speedup %.2f  (%v)\n", m.Scheme, m.Speedup, m.Breakdown)
	}
	if sel.Hit {
		fmt.Println("the model's recommendation matched the measured winner")
	} else {
		fmt.Println("the model's recommendation did NOT match the measured winner")
	}
}
