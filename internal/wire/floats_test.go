package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/engine"
)

// TestBulkFloatsMatchPerElement runs both codec paths over every length
// around the portable loops' unroll width and compares them with the
// one-element encoding they replaced, on arbitrary bit patterns.
func TestBulkFloatsMatchPerElement(t *testing.T) {
	paths := []struct {
		name string
		put  func([]byte, []float64)
		get  func([]float64, []byte)
	}{{"host", putF64s, getF64s}, {"portable", putF64sPortable, getF64sPortable}}
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 17; n++ {
		v := make([]float64, n)
		var want []byte
		for i := range v {
			v[i] = math.Float64frombits(rng.Uint64())
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v[i]))
		}
		for _, p := range paths {
			got := make([]byte, 8*n+3) // longer than needed: only 8n bytes may be written
			for i := range got {
				got[i] = 0xa5
			}
			p.put(got, v)
			if string(got[:8*n]) != string(want) || got[8*n] != 0xa5 {
				t.Fatalf("%s n=%d: put wrote %x, want %x", p.name, n, got, want)
			}
			back := make([]float64, n)
			p.get(back, got)
			for i := range v {
				if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
					t.Fatalf("%s n=%d: element %d reads back %x, want %x", p.name, n, i, math.Float64bits(back[i]), math.Float64bits(v[i]))
				}
			}
		}
	}
}

// TestFloatCodecPathsAgree holds the two codec paths to the same bytes
// on the values a byte-order slip would mangle first — NaN payloads
// (quiet and signalling, both signs), −0, ±Inf, subnormals, extremes —
// at every vector length from 0 to 9, each vector starting at a
// different point of the list. On a big-endian host both paths are the
// portable one.
func TestFloatCodecPathsAgree(t *testing.T) {
	special := []uint64{
		0x7ff8000000000001, 0xfff0000000000001, 0x7ff4000000000000, 0xffffffffffffffff,
		0x8000000000000000, 0x0000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
		0x0000000000000001, 0x800fffffffffffff, 0x7fefffffffffffff, 0x0010000000000000,
		0x3ff0000000000000, 0x0123456789abcdef,
	}
	for n := 0; n <= 9; n++ {
		for start := range special {
			v := make([]float64, n)
			for i := range v {
				v[i] = math.Float64frombits(special[(start+i)%len(special)])
			}
			fast, portable := make([]byte, 8*n), make([]byte, 8*n)
			putF64s(fast, v)
			putF64sPortable(portable, v)
			if string(fast) != string(portable) {
				t.Fatalf("n=%d start=%d: putF64s wrote %x, the portable loop %x", n, start, fast, portable)
			}
			back, backPortable := make([]float64, n), make([]float64, n)
			getF64s(back, fast)
			getF64sPortable(backPortable, fast)
			for i := range v {
				want := math.Float64bits(v[i])
				if got, gotP := math.Float64bits(back[i]), math.Float64bits(backPortable[i]); got != want || gotP != want {
					t.Fatalf("n=%d start=%d: element %d reads back %x (portable %x), want %x", n, start, i, got, gotP, want)
				}
			}
		}
	}
}

// BenchmarkResultCodec times the RESULT codec alone at the standing
// workloads' vector sizes (session_remote's 1024, the Zipf streams' 3100):
// encode into a reused buffer, lend (the server's encode: head and tail
// only), decode into a sized destination — the warm path of a
// connection. MB/s is over the frame.
func BenchmarkResultCodec(b *testing.B) {
	for _, n := range []int{1024, 3100} {
		res := engine.Result{Values: make([]float64, n), Scheme: "rep", Why: "simplify: resident result", BatchSize: 3}
		for i := range res.Values {
			res.Values[i] = float64(i) * 0.5
		}
		frame := AppendResultHandle(nil, 7, &res, 300)
		b.Run("encode/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			buf := make([]byte, 0, len(frame))
			for i := 0; i < b.N; i++ {
				buf = AppendResultHandle(buf[:0], 7, &res, 300)
			}
		})
		b.Run("lend/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			buf := &Buffer{}
			for i := 0; i < b.N; i++ {
				buf.B = buf.B[:0]
				buf.LendResult(7, &res, 300, nil)
			}
		})
		b.Run("decode/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			f, _, err := DecodeFrame(frame, 0)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, n)
			for i := 0; i < b.N; i++ {
				if _, _, err := f.DecodeResultHandle(dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
