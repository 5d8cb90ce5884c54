// A molecular-dynamics force loop (Moldyn's ComputeForces) run across
// simulated timesteps. The pairlist degrades as particles move; the
// SmartApps runtime detects the pattern change and re-selects the
// reduction algorithm mid-run — Section 4's adaptive algorithm selection.
package main

import (
	"fmt"

	"repro/internal/lab/smartapp"
	"repro/internal/workloads"
)

func main() {
	rt := smartapp.NewRuntime(smartapp.DefaultPlatform(8))

	// Early timesteps: freshly built pairlist, dense and local.
	early := workloads.PatternSpec{
		Dim: 16384, SPPercent: 24, CHR: 0.41, MO: 2,
		Locality: 0.8, Skew: 0.5, Work: 40, Invocations: 10, Seed: 1,
	}
	// Late timesteps: particles drifted, references sparse and scattered.
	late := workloads.PatternSpec{
		Dim: 87808, SPPercent: 0.4, CHR: 0.29, MO: 2,
		Locality: 0.4, Skew: 1.3, Work: 40, Invocations: 10, Seed: 2,
	}

	for step := 0; step < 6; step++ {
		spec := early
		phase := "early"
		if step >= 3 {
			spec = late
			phase = "late"
		}
		spec.Seed += int64(step)
		loop := workloads.Generate("moldyn/ComputeForces", spec, 0.25)
		out := rt.Execute(loop)
		fmt.Printf("timestep %d (%s pairlist): scheme=%s action=%v\n",
			step, phase, out.Decision.Scheme, out.Decision.Action)
	}
	fmt.Println("the runtime switched algorithms when the pairlist degraded")
}
