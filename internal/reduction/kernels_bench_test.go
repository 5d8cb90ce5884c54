package reduction

import (
	"testing"

	"repro/internal/trace"
)

// benchProcs matches the paper's 8-processor evaluation machine (and the
// engine benchmark suite's processor count, so results are comparable).
const benchProcs = 8

// kernelWorkloads are the microbenchmark iteration spaces: dense vs
// sparse reference patterns at large and small array sizes. The dense
// large shape is the kernel-bound regime the optimized loops target; the
// sparse shape stresses the lazy/compact paths (ll, sel, hash); the small
// shape measures per-call overhead where the unroll bodies barely run.
var kernelWorkloads = []struct {
	name string
	loop func() *trace.Loop
}{
	{"dense-large", func() *trace.Loop { return randomLoop(65536, 20000, 4, 1) }},
	{"sparse-large", func() *trace.Loop { return randomLoop(65536, 3000, 2, 2) }},
	{"dense-small", func() *trace.Loop { return randomLoop(2048, 8000, 4, 3) }},
}

// BenchmarkKernel measures every scheme's full RunInto on each workload,
// pooled (reused Exec, the engine's steady state) and cold (nil Exec,
// fresh allocations) for the dense-large shape. scripts/bench_engine.sh
// records these into BENCH_engine.json, so the normalized regression gate
// covers each kernel individually.
func BenchmarkKernel(b *testing.B) {
	for _, s := range All() {
		for _, w := range kernelWorkloads {
			l := w.loop()
			b.Run(s.Name()+"/pooled-"+w.name, func(b *testing.B) {
				ex := &Exec{Pool: NewBufferPool()}
				var out []float64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = s.RunInto(l, benchProcs, ex, out)
				}
			})
		}
		l := kernelWorkloads[0].loop()
		b.Run(s.Name()+"/cold-dense-large", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.Run(l, benchProcs)
			}
		})
	}
}

// BenchmarkKernelNaive runs the retained scalar reference on the
// dense-large shape, pooled — the direct before/after comparison for the
// optimized kernels (same orchestration, scalar inner loops). sel and lw
// have no unrolled body, so BenchmarkKernel already times their
// reference.
func BenchmarkKernelNaive(b *testing.B) {
	for _, s := range kernelSchemes {
		l := kernelWorkloads[0].loop()
		b.Run(s.Name()+"/pooled-dense-large", func(b *testing.B) {
			ex := &Exec{Pool: NewBufferPool(), naive: true}
			var out []float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = s.RunInto(l, benchProcs, ex, out)
			}
		})
	}
}
