package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one named measurement with its unit, the only shape a number
// leaves the harness in.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// metricSet collects a run's metrics in emission order. A name may be
// put once: BENCHMARK.json and the harness are held together by name, so
// a duplicate is a harness bug and panics.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (s *metricSet) put(name, unit string, v float64) {
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	if s.seen[name] {
		panic(fmt.Sprintf("bench: metric %q emitted twice", name))
	}
	s.seen[name] = true
	s.list = append(s.list, metric{name, unit, v})
}

// median returns the middle of vs (mean of the two middles for even
// counts); 0 for an empty sample.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileNs returns the q-quantile (nearest rank) of an ascending
// nanosecond sample in microseconds; 0 for an empty sample.
func quantileNs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank]) / 1e3
}

// ratio is a/b with 0 for an empty denominator, so a layer that did no
// work reads 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
