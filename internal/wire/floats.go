package wire

import (
	"encoding/binary"
	"math"
)

// The bulk float codec: a RESULT's reduction array crosses the wire as
// raw little-endian float64 bits, so encoding and decoding it is a copy.
// Both loops take one bounds check for the whole vector (the marked
// re-slice; the caller has already proved the length) and then run
// check-free at one load and one store per element — scripts/bce_check.sh
// gates this file. The loop shape is what the prove pass discharges:
// conditions on the slices' own lengths, constant offsets inside.

// putF64s stores v's bits into dst, which must hold at least 8*len(v)
// bytes.
func putF64s(dst []byte, v []float64) {
	dst = dst[:8*len(v)] //bce:slice the one check for the whole vector
	for len(dst) >= 32 && len(v) >= 4 {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(dst[16:], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(dst[24:], math.Float64bits(v[3]))
		dst, v = dst[32:], v[4:]
	}
	for len(dst) >= 8 && len(v) > 0 {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v[0]))
		dst, v = dst[8:], v[1:]
	}
}

// getF64s fills v from src, which must hold at least 8*len(v) bytes.
func getF64s(v []float64, src []byte) {
	src = src[:8*len(v)] //bce:slice the one check for the whole vector
	for len(src) >= 32 && len(v) >= 4 {
		v[0] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		v[1] = math.Float64frombits(binary.LittleEndian.Uint64(src[8:]))
		v[2] = math.Float64frombits(binary.LittleEndian.Uint64(src[16:]))
		v[3] = math.Float64frombits(binary.LittleEndian.Uint64(src[24:]))
		src, v = src[32:], v[4:]
	}
	for len(src) >= 8 && len(v) > 0 {
		v[0] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		src, v = src[8:], v[1:]
	}
}
