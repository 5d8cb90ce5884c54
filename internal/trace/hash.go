package trace

import "unsafe"

// The sampled content hashes — Loop.Fingerprint over a whole loop,
// pattern.HashRefs over one segment — read a strided sample of a
// subscript stream and fold every sampled word into an FNV-style chain.
// A single chain is bound by the latency of its multiply, since each
// step waits for the one before it. SampleHash spreads the samples
// round-robin over four independent chains (sample j feeds lane j mod 4)
// and folds the lanes together once, at the end — the partial
// accumulators every reduction kernel here keeps — so the hash runs at
// the core's multiply throughput instead. The positions read are exactly
// the ones one chain reads; only the order in which they are combined
// differs, and with it the value.
//
// Each step is a bijection of the lane for a fixed word and of the word
// for a fixed lane, and so is the final fold in every lane, so changing
// any one sampled word always changes the hash.

// SampleHash is the state of a four-lane sampled hash.
type SampleHash [4]uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix is one step of a lane: FNV-1a's xor-multiply on a 64-bit word,
// then an xorshift that feeds the product's high bits back down.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	return h ^ h>>29
}

// NewSampleHash starts a hash over the given geometry words, chained in
// order into the first lane; the other lanes start from distinct
// constants, so a sample that moves between lanes moves the hash.
func NewSampleHash(words ...uint64) SampleHash {
	h := SampleHash{fnvOffset, fnvOffset ^ 0x9E3779B97F4A7C15, fnvOffset ^ 0xBF58476D1CE4E5B9, fnvOffset ^ 0x94D049BB133111EB}
	for _, w := range words {
		h[0] = mix(h[0], w)
	}
	return h
}

// Refs mixes s[0], s[stride], s[2*stride], ... into the hash, each as
// its value in the low 32 bits and its position in s in the high 32, so
// a shifted copy of the same values hashes differently. stride below 1
// reads every element.
func (h *SampleHash) Refs(s []int32, stride int) { h.sample(s, stride, 1<<32) }

// Values mixes the same samples as Refs by value alone.
func (h *SampleHash) Values(s []int32, stride int) { h.sample(s, stride, 0) }

// sample mixes every stride-th element of s, each or'ed with its
// position times posUnit, sample j into lane j mod 4.
func (h *SampleHash) sample(s []int32, stride int, posUnit uint64) {
	stride = max(stride, 1)
	step := uint64(stride) * posUnit // one stride's position word
	a, b, c, d := h[0], h[1], h[2], h[3]
	i, p := 0, uint64(0) // p is sample i's position word
	// The rounds of four load without bounds checks — a checked load per
	// sample costs the hash a fifth of its time. The loop condition is
	// the proof: i+3*stride < len(s), and the other three are below it.
	base, w := unsafe.Pointer(unsafe.SliceData(s)), uintptr(stride)*4
	for ; i+3*stride < len(s); i += 4 * stride {
		q := unsafe.Add(base, uintptr(i)*4)
		a = mix(a, uint64(*(*uint32)(q))|p)
		b = mix(b, uint64(*(*uint32)(unsafe.Add(q, w)))|(p+step))
		c = mix(c, uint64(*(*uint32)(unsafe.Add(q, 2*w)))|(p+2*step))
		d = mix(d, uint64(*(*uint32)(unsafe.Add(q, 3*w)))|(p+3*step))
		p += 4 * step
	}
	// At most three samples are left.
	if i < len(s) {
		a = mix(a, uint64(uint32(s[i]))|p)
		i, p = i+stride, p+step
	}
	if i < len(s) {
		b = mix(b, uint64(uint32(s[i]))|p)
		i, p = i+stride, p+step
	}
	if i < len(s) {
		c = mix(c, uint64(uint32(s[i]))|p)
	}
	h[0], h[1], h[2], h[3] = a, b, c, d
}

// Sum folds the four lanes into the hash value.
func (h *SampleHash) Sum() uint64 { return mix(mix(mix(h[0], h[1]), h[2]), h[3]) }
