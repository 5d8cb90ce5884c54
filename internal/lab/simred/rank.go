package simred

import (
	"sort"

	"repro/internal/adapt"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Measured is one scheme's simulated performance on a loop instance.
type Measured struct {
	// Scheme is the paper abbreviation.
	Scheme string
	// Breakdown is the Init/Loop/Merge virtual-time split.
	Breakdown stats.Breakdown
	// Speedup is sequential virtual time / parallel virtual time.
	Speedup float64
}

// SimulateSequential charges the loop's sequential execution (direct
// updates into the shared array, no privatization) on a one-processor
// virtual machine and returns its virtual time.
func SimulateSequential(l *trace.Loop, cfg vtime.Config) float64 {
	m := vtime.NewMachine(1, cfg)
	m.Serial(func(cpu *vtime.CPU) {
		pos := 0
		for i := 0; i < l.NumIters(); i++ {
			refs := l.Iter(i)
			cpu.Compute(l.WorkPerIter)
			for k := range refs {
				cpu.Load(sharedXBase + int64(pos+k)*4)
			}
			pos += len(refs)
			for _, idx := range refs {
				addr := sharedWBase + int64(idx)*8
				cpu.Load(addr)
				cpu.Compute(1)
				cpu.Store(addr)
			}
		}
	})
	return m.Now()
}

// Rank simulates every scheme in the library on a procs-processor virtual
// machine and returns them sorted by ascending virtual time (best first),
// with speedups relative to the sequential execution.
func Rank(l *trace.Loop, procs int, cfg vtime.Config) []Measured {
	seq := SimulateSequential(l, cfg)
	out := make([]Measured, 0, len(All()))
	for _, s := range All() {
		m := vtime.NewMachine(procs, cfg)
		m.EnableSharingTracking()
		b := s.Simulate(l, m)
		out = append(out, Measured{
			Scheme:    s.Name(),
			Breakdown: b,
			Speedup:   stats.Speedup(seq, b.Total()),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Breakdown.Total() < out[j].Breakdown.Total()
	})
	return out
}

// Order formats a ranking the way Figure 3's "Experimental Result" column
// does: scheme names in decreasing speedup order separated by " > ".
func Order(ms []Measured) string {
	s := ""
	for i, m := range ms {
		if i > 0 {
			s += " > "
		}
		s += m.Scheme
	}
	return s
}

// Selection is the full output of adaptive selection on a loop instance.
type Selection struct {
	Profile        *pattern.Profile
	Recommendation adapt.Recommendation
	Ranking        []Measured
	// Hit reports whether the recommended scheme was also the fastest in
	// the measured ranking.
	Hit bool
}

// Select characterizes the loop, runs the decision algorithm, measures
// all schemes and reports whether the recommendation hit the measured
// optimum. This is the whole Section 4 pipeline in one call.
func Select(l *trace.Loop, procs int, cfg vtime.Config) Selection {
	if cfg.LineBytes == 0 {
		cfg = vtime.DefaultConfig()
	}
	prof := pattern.Characterize(l, procs, cfg.L2Bytes)
	rec := adapt.Recommend(prof)
	rank := Rank(l, procs, cfg)
	return Selection{
		Profile:        prof,
		Recommendation: rec,
		Ranking:        rank,
		Hit:            len(rank) > 0 && rank[0].Scheme == rec.Scheme,
	}
}
