package trace_test

import (
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// serialFingerprint is Loop.Fingerprint as one serial FNV chain, the
// definition before the hash moved to four lanes. It is kept here only
// as the oracle of which positions the fingerprint samples: a position
// is sampled exactly when changing it changes this value.
func serialFingerprint(l *trace.Loop) uint64 {
	const samples = 256
	offsets, refs := l.Flat()
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
		h ^= h >> 29
	}
	mix(uint64(l.NumElems))
	mix(uint64(l.ElemBytes))
	mix(uint64(len(refs)))
	mix(uint64(len(offsets)))
	mix(uint64(l.Op))
	stride := len(refs) / samples
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(refs); i += stride {
		mix(uint64(uint32(refs[i])) | uint64(i)<<32)
	}
	offStride := (len(offsets) - 1) / samples
	if offStride < 1 {
		offStride = 1
	}
	for i := 0; i < len(offsets); i += offStride {
		mix(uint64(uint32(offsets[i])))
	}
	return h
}

// contractLoops is the population the sampling contract is pinned on:
// the Zipf workloads' hot keys, the six regimes and both phases of a
// drift stream, whose phase variants differ only between samples.
func contractLoops() []*trace.Loop {
	loops := append(workloads.HotKeySet(16, 0.5), workloads.MixedSet(0.25)...)
	for _, phase := range workloads.NewDriftStream(4, 2, 8, 1.4, 0.25, 1).Phases {
		loops = append(loops, phase...)
	}
	return loops
}

// TestFingerprintSamplesTheSerialPositions pins the sampling contract
// position by position: changing any one reference or offset changes the
// fingerprint exactly when it changes the serial oracle's, so the lanes
// read the same positions the serial chain read, no more and no fewer.
func TestFingerprintSamplesTheSerialPositions(t *testing.T) {
	for _, l := range contractLoops() {
		offsets, refs := l.Flat()
		fp, serial := l.Fingerprint(), serialFingerprint(l)
		check := func(kind string, s []int32, i int, v int32) bool {
			old := s[i]
			s[i] = v
			moved, sampled := l.Fingerprint() != fp, serialFingerprint(l) != serial
			s[i] = old
			if moved != sampled {
				t.Fatalf("%s: %s[%d] sampled=%v but fingerprint moved=%v", l.Name, kind, i, sampled, moved)
			}
			return sampled
		}
		var nRefs, nOffs int
		for i, r := range refs {
			if check("refs", refs, i, (r+1)%int32(l.NumElems)) {
				nRefs++
			}
		}
		for i, o := range offsets {
			if check("offsets", offsets, i, o^1) {
				nOffs++
			}
		}
		// The serial chain read ceil(len/stride) positions of each.
		wantRefs := ceilDiv(len(refs), max(len(refs)/256, 1))
		wantOffs := ceilDiv(len(offsets), max((len(offsets)-1)/256, 1))
		if nRefs != wantRefs || nOffs != wantOffs || nRefs == len(refs) {
			t.Fatalf("%s: %d refs and %d offsets sampled of %d and %d, want %d and %d",
				l.Name, nRefs, nOffs, len(refs), len(offsets), wantRefs, wantOffs)
		}
		if fp == serial {
			t.Fatalf("%s: the lanes reproduce the serial value %x", l.Name, fp)
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TestFingerprintGeometryWords: every geometry word feeds the hash.
func TestFingerprintGeometryWords(t *testing.T) {
	l := workloads.MixedSet(0.25)[0]
	fp := l.Fingerprint()
	for name, edit := range map[string]func(c *trace.Loop){
		"NumElems":  func(c *trace.Loop) { c.NumElems++ },
		"ElemBytes": func(c *trace.Loop) { c.ElemBytes = 4 },
		"Op":        func(c *trace.Loop) { c.Op = trace.OpMax },
		"refs": func(c *trace.Loop) {
			offs, refs := c.Flat()
			offs = append(offs[:len(offs):len(offs)], offs[len(offs)-1]+1)
			if err := c.SetFlat(offs, append(refs[:len(refs):len(refs)], 0)); err != nil {
				t.Fatal(err)
			}
		},
	} {
		c := l.Clone()
		edit(c)
		if c.Fingerprint() == fp {
			t.Errorf("changing %s left the fingerprint at %x", name, fp)
		}
	}
}

// TestFingerprintsDistinct: no two distinct loops of the standing
// populations share a fingerprint — the Zipf hot keys, the six regimes,
// and a churn_engine-shaped population (MixedSpecs with the dimension
// jittered by 64 per round and a per-pattern seed).
func TestFingerprintsDistinct(t *testing.T) {
	loops := append(workloads.HotKeySet(16, 0.5), workloads.MixedSet(0.25)...)
	specs := workloads.MixedSpecs()
	n := 1536
	if testing.Short() {
		n = 192
	}
	for i := 0; i < n; i++ {
		spec := specs[i%len(specs)]
		spec.Dim += 64 * (i / len(specs))
		spec.Seed = 1<<20 + int64(i)
		loops = append(loops, workloads.Generate(fmt.Sprintf("churn-%04d", i), spec, 0.25))
	}
	seen := make(map[uint64]string, len(loops))
	for _, l := range loops {
		fp := l.Fingerprint()
		if other, dup := seen[fp]; dup {
			t.Fatalf("%s and %s share fingerprint %x", other, l.Name, fp)
		}
		seen[fp] = l.Name
	}
}

// BenchmarkFingerprint fingerprints the Zipf workloads' 16 hot keys in
// turn, so each call finds its loop's samples out of the nearest caches —
// the shape of a stream of resident hits. ns/op is per loop.
func BenchmarkFingerprint(b *testing.B) {
	loops := workloads.HotKeySet(16, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink ^= loops[i%len(loops)].Fingerprint()
	}
}

var fpSink uint64
