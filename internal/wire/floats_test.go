package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/engine"
)

// TestBulkFloatsMatchPerElement runs the two bulk loops over every length
// around their unroll width and compares them with the one-element
// encoding they replaced, on arbitrary bit patterns.
func TestBulkFloatsMatchPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 17; n++ {
		v := make([]float64, n)
		var want []byte
		for i := range v {
			v[i] = math.Float64frombits(rng.Uint64())
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v[i]))
		}
		got := make([]byte, 8*n+3) // longer than needed: only 8n bytes may be written
		for i := range got {
			got[i] = 0xa5
		}
		putF64s(got, v)
		if string(got[:8*n]) != string(want) || got[8*n] != 0xa5 {
			t.Fatalf("n=%d: putF64s wrote %x, want %x", n, got, want)
		}
		back := make([]float64, n)
		getF64s(back, got)
		for i := range v {
			if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
				t.Fatalf("n=%d: element %d reads back %x, want %x", n, i, math.Float64bits(back[i]), math.Float64bits(v[i]))
			}
		}
	}
}

// BenchmarkResultCodec times the RESULT codec alone at the standing
// workloads' vector sizes (session_remote's 1024, the Zipf streams' 3100):
// encode into a reused buffer, decode into a sized destination — the warm
// path of a connection. MB/s is over the frame.
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
