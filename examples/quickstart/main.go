// Quickstart: hand a reduction loop to the SmartApps runtime and let it
// characterize the access pattern, pick the best parallel reduction
// algorithm from the multi-version library, execute it and report what it
// decided.
package main

import (
	"fmt"

	"repro/internal/lab/smartapp"
	"repro/internal/workloads"
)

func main() {
	// An irregular histogram-style reduction: 50k elements, moderately
	// contended, mesh-like locality.
	loop := workloads.Generate("quickstart", workloads.PatternSpec{
		Dim: 50000, SPPercent: 20, CHR: 0.6, MO: 2,
		Locality: 0.85, Skew: 0.5, Work: 30, Invocations: 50, Seed: 7,
	}, 1)

	rt := smartapp.NewRuntime(smartapp.DefaultPlatform(8))
	out := rt.Execute(loop)

	fmt.Printf("loop %q: %d iterations, %d reduction references\n",
		loop.Name, loop.NumIters(), loop.TotalRefs())
	fmt.Printf("selected implementation: %s (%s)\n", out.Decision.Scheme, out.Decision.Why)
	fmt.Printf("action: %v\n", out.Decision.Action)
	sum := 0.0
	for _, v := range out.Result {
		sum += v
	}
	fmt.Printf("reduction checksum: %.6f\n", sum)
}
