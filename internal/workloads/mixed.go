package workloads

import "repro/internal/trace"

// MixedSet returns one loop per access-pattern regime the decision
// algorithm distinguishes — dense/contended, skewed hot spots, extremely
// sparse (hash territory), clustered, large mostly-exclusive and
// moderate — scaled together. It is the shared job stream of the engine
// tests, the engine throughput benchmarks and cmd/reduxserve, so all
// three exercise the same workloads.
func MixedSet(scale float64) []*trace.Loop {
	loops := make([]*trace.Loop, len(mixedSpecs))
	for i, s := range mixedSpecs {
		loops[i] = Generate(s.name, s.spec, scale)
	}
	return loops
}

// MixedSpecs returns MixedSet's six regime specs, for populations that
// vary them (a dimension jitter, a per-pattern seed) the way HotKeySet
// varies its templates.
func MixedSpecs() []PatternSpec {
	specs := make([]PatternSpec, len(mixedSpecs))
	for i, s := range mixedSpecs {
		specs[i] = s.spec
	}
	return specs
}

var mixedSpecs = []struct {
	name string
	spec PatternSpec
}{
	{"dense-small", PatternSpec{Dim: 4000, SPPercent: 70, CHR: 0.9, MO: 2, Locality: 0.6, Work: 6, Seed: 101}},
	{"dense-hot", PatternSpec{Dim: 3000, SPPercent: 40, CHR: 0.8, MO: 3, Locality: 0.3, Skew: 2, Work: 5, Seed: 102}},
	{"sparse-hash", PatternSpec{Dim: 120000, SPPercent: 0.2, CHR: 0.03, MO: 10, Locality: 0.1, Work: 12, Seed: 103}},
	{"clustered", PatternSpec{Dim: 16000, SPPercent: 25, CHR: 0.3, MO: 3, Locality: 0.9, Work: 8, Seed: 104}},
	{"large-exclusive", PatternSpec{Dim: 60000, SPPercent: 12, CHR: 0.12, MO: 2, Locality: 0.95, Work: 10, Seed: 105}},
	{"moderate", PatternSpec{Dim: 10000, SPPercent: 35, CHR: 0.3, MO: 2, Locality: 0.5, Work: 7, Seed: 106}},
}
