package pattern_test

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// serialHashRefs is HashRefs as one serial FNV chain, the definition
// before the hash moved to four lanes. It is kept here only as the
// oracle of which positions a segment hash samples.
func serialHashRefs(refs []int32) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
		h ^= h >> 29
	}
	mix(uint64(len(refs)))
	stride := len(refs) / 64
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(refs); i += stride {
		mix(uint64(uint32(refs[i])) | uint64(i)<<32)
	}
	return h
}

// contractSegments cuts the contract population — the Zipf hot keys, the
// six regimes and both phases of a drift stream — into eight segments
// per loop, as a resident pattern on eight processors is cut.
func contractSegments() (segs [][]int32, elems []int32) {
	loops := append(workloads.HotKeySet(16, 0.5), workloads.MixedSet(0.25)...)
	for _, phase := range workloads.NewDriftStream(4, 2, 8, 1.4, 0.25, 1).Phases {
		loops = append(loops, phase...)
	}
	for _, l := range loops {
		for _, seg := range segmentsOf(l) {
			segs = append(segs, seg)
			elems = append(elems, int32(l.NumElems))
		}
	}
	return segs, elems
}

// TestHashRefsSamplesTheSerialPositions pins the sampling contract
// position by position: changing any one reference of a segment changes
// HashRefs exactly when it changes the serial oracle's value.
func TestHashRefsSamplesTheSerialPositions(t *testing.T) {
	segs, elems := contractSegments()
	for si, seg := range segs {
		h, serial := pattern.HashRefs(seg), serialHashRefs(seg)
		sampled := 0
		for i, r := range seg {
			seg[i] = (r + 1) % elems[si]
			moved, changed := pattern.HashRefs(seg) != h, serialHashRefs(seg) != serial
			seg[i] = r
			if moved != changed {
				t.Fatalf("segment %d: refs[%d] sampled=%v but the hash moved=%v", si, i, changed, moved)
			}
			if changed {
				sampled++
			}
		}
		stride := max(len(seg)/64, 1)
		if want := (len(seg) + stride - 1) / stride; sampled != want {
			t.Fatalf("segment %d: %d of %d positions sampled, want %d", si, sampled, len(seg), want)
		}
		if len(seg) > 0 && pattern.HashRefs(seg[1:]) == pattern.HashRefs(seg[:len(seg)-1]) {
			t.Fatalf("segment %d: a shifted window hashes like the original", si)
		}
	}
}

// TestHashRefsDistinct: segments of the contract population whose
// content differs get distinct hashes.
func TestHashRefsDistinct(t *testing.T) {
	segs, _ := contractSegments()
	seen := make(map[uint64][]int32, len(segs))
	for si, seg := range segs {
		h := pattern.HashRefs(seg)
		if other, dup := seen[h]; dup && !pattern.SameRefs(other, seg) {
			t.Fatalf("segment %d collides with a different segment at %x", si, h)
		}
		seen[h] = seg
	}
}

// BenchmarkHashRefs hashes the eight segments of the Zipf workloads' 16
// hot keys, one loop per op, cycling the keys as a stream of resident
// hits does; ns/op is the per-job segment check.
func BenchmarkHashRefs(b *testing.B) {
	var loops [][][]int32
	for _, l := range workloads.HotKeySet(16, 0.5) {
		loops = append(loops, segmentsOf(l))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seg := range loops[i%len(loops)] {
			hashSink ^= pattern.HashRefs(seg)
		}
	}
}

var hashSink uint64

// segmentsOf cuts l into eight segments of at least 32 iterations.
func segmentsOf(l *trace.Loop) [][]int32 {
	offs, refs := l.Flat()
	iters := l.NumIters()
	segIters := max((iters+7)/8, 32)
	var segs [][]int32
	for lo := 0; lo < iters; lo += segIters {
		segs = append(segs, refs[offs[lo]:offs[min(lo+segIters, iters)]])
	}
	return segs
}
