package wire

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The bulk float codec: a RESULT's reduction array crosses the wire as
// raw little-endian float64 bits, so encoding and decoding it is a copy.
// On a little-endian host (hostLE, set per architecture in
// floats_le.go/floats_be.go) it is exactly that: one copy between the
// frame and a byte view of the vector — and a sender skips even that,
// handing the byte view to the socket (Buffer.LendResult). Elsewhere the portable loops
// below store and load element by element; they are compiled on every
// host and the tests hold the two paths to the same bytes.
//
// Each function takes one bounds check for the whole vector (the marked
// re-slice; the caller has already proved the length). The portable
// loops then run check-free at one load and one store per element —
// scripts/bce_check.sh gates this file. Their shape is what the prove
// pass discharges: conditions on the slices' own lengths, constant
// offsets inside.

// putF64s stores v's bits into dst, which must hold at least 8*len(v)
// bytes.
func putF64s(dst []byte, v []float64) {
	dst = dst[:8*len(v)] //bce:slice the one check for the whole vector
	if hostLE {
		copy(dst, f64Bytes(v))
		return
	}
	putF64sPortable(dst, v)
}

// getF64s fills v from src, which must hold at least 8*len(v) bytes.
func getF64s(v []float64, src []byte) {
	src = src[:8*len(v)] //bce:slice the one check for the whole vector
	if hostLE {
		// In pieces below 2 KiB: from there up, amd64's memmove takes
		// REP MOVSQ for a 16-byte aligned destination — a fresh vector
		// is one — and that runs several times slower when the source
		// is not 8-byte aligned, as a vector inside a frame mostly is.
		// Below it, memmove's vector loop does not care.
		dst := f64Bytes(v)
		for len(src) > 0 {
			n := copy(dst, src[:min(len(src), 1024)])
			dst, src = dst[n:], src[n:]
		}
		return
	}
	getF64sPortable(v, src)
}

// f64Bytes views v's memory as bytes, in the host's byte order.
func f64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// putF64sPortable is putF64s on any host.
func putF64sPortable(dst []byte, v []float64) {
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

// getF64sPortable is getF64s on any host.
func getF64sPortable(v []float64, src []byte) {
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
