package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the testdata/{stats,result} golden files from the current encoder")

// goldenHex returns the frame pinned in the hex file at path. Under
// -update it first rewrites the file from got, the current encoding.
func goldenHex(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return want
}

// goldenStatsCases returns seven snapshots, each extending the previous
// one by a part of the STATS body — recalibrations, simplification and
// stage counters, session counters, tenant rows, and last a three-scheme
// mix — the same chain gen_corpus.go seeds the fuzzer with.
func goldenStatsCases() []struct {
	name string
	s    engine.Stats
} {
	none := engine.Stats{
		Jobs: 100, CacheHits: 80, CacheMisses: 20, Batches: 100,
		CacheEntries: 7, CacheEvictions: 2,
		Schemes: map[string]uint64{"rep": 100},
	}
	recal := none
	recal.Recalibrations, recal.SchemeSwitches = 9, 4
	simp := recal
	simp.SegsComputed, simp.SegsReused = 30, 18
	hist := simp
	hist.Stages = []obs.StageSummary{
		{Name: "queue_wait", Snap: obs.Snapshot{Count: 90, SumNs: 81000, MaxNs: 4000, Buckets: []uint64{2, 0, 0, 5, 83}}},
		{Name: "execute", Snap: obs.Snapshot{Count: 100, SumNs: 2_500_000, MaxNs: 90_000, Buckets: []uint64{0, 0, 0, 0, 0, 0, 0, 0, 1, 4, 95}}},
	}
	sess := hist
	sess.SessionOpens, sess.SessionJobs = 3, 25
	sess.SessionSegsComputed, sess.SessionSegsReused = 40, 160
	ten := sess
	ten.Tenants = []engine.TenantStats{
		{Name: "default", Weight: 1, Jobs: 30,
			QueueWait: obs.Snapshot{Count: 30, SumNs: 27000, MaxNs: 1300, Buckets: []uint64{1, 0, 4, 25}}},
		{Name: "acme", Weight: 4, Jobs: 70, Busy: 5, Recalibrations: 6, SchemeSwitches: 3,
			QueueWait: obs.Snapshot{Count: 60, SumNs: 54000, MaxNs: 2700, Buckets: []uint64{1, 0, 9, 50}}},
	}
	mixed := ten
	mixed.Schemes = map[string]uint64{"rep": 60, "ll": 30, "hash": 10}
	return []struct {
		name string
		s    engine.Stats
	}{
		{"none", none}, {"recal", recal}, {"simplify", simp},
		{"hist", hist}, {"session", sess}, {"tenants", ten},
		{"mixed", mixed},
	}
}

// TestStatsGoldenBytes pins the version-2 STATS frame of each snapshot
// to recorded bytes, and checks each golden decodes back to the snapshot
// that produced it. Every snapshot is encoded 32 times: one snapshot has
// one encoding, however many schemes its map holds.
func TestStatsGoldenBytes(t *testing.T) {
	for i, tc := range goldenStatsCases() {
		got := AppendStats(nil, uint64(6+i), &tc.s)
		for n := 1; n < 32; n++ {
			if again := AppendStats(nil, uint64(6+i), &tc.s); !bytes.Equal(again, got) {
				t.Fatalf("%s: encode %d of one snapshot differs from the first\n got %x\nwant %x", tc.name, n+1, again, got)
			}
		}
		want := goldenHex(t, filepath.Join("testdata", "stats", tc.name+".hex"), got)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: STATS frame moved\n got %x\nwant %x", tc.name, got, want)
		}
		f, n, err := DecodeFrame(want, 0)
		if err != nil || n != len(want) {
			t.Fatalf("%s: golden does not frame: n=%d err=%v", tc.name, n, err)
		}
		back, err := f.DecodeStats()
		if err != nil {
			t.Fatalf("%s: golden does not decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, tc.s) {
			t.Errorf("%s: golden decodes to\n %+v\nwant\n %+v", tc.name, back, tc.s)
		}
	}
}

// TestStatsSchemaRoundTrip guards the failure mode a table-driven codec
// introduces — a row wired to the wrong field:
// every scalar of the snapshot and of two tenant rows is set to a
// distinct prime, and the decoded frame must equal what was encoded.
func TestStatsSchemaRoundTrip(t *testing.T) {
	p := uint64(1)
	next := func() uint64 {
	search:
		for p++; ; p++ {
			for d := uint64(2); d*d <= p; d++ {
				if p%d == 0 {
					continue search
				}
			}
			return p
		}
	}

	want := engine.Stats{
		Schemes: map[string]uint64{"rep": next()},
		Stages:  []obs.StageSummary{{Name: "execute", Snap: obs.Snapshot{Count: next(), SumNs: next(), MaxNs: next(), Buckets: []uint64{next()}}}},
		Tenants: []engine.TenantStats{{Name: "default"}, {Name: "acme", QueueWait: obs.Snapshot{Count: next(), Buckets: []uint64{0, next()}}}},
	}
	// Scalars are set through reflection, not through the rows under
	// test: a row that reads or writes its neighbour's field must not be
	// able to agree with itself.
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch fv := v.Field(i); fv.Kind() {
			case reflect.Uint64:
				fv.SetUint(next())
			case reflect.Int:
				fv.SetInt(int64(next()))
			}
		}
	}
	fill(reflect.ValueOf(&want).Elem())
	for r := range want.Tenants {
		fill(reflect.ValueOf(&want.Tenants[r]).Elem())
	}
	f, _, err := DecodeFrame(AppendStats(nil, 1, &want), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DecodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip moved a field:\n got %+v\nwant %+v", got, want)
	}
}

// goldenResultCases returns the RESULT frames pinned under
// testdata/result: the vector sizes the codec's bulk loops must handle
// (none, one, the 3 100-element hot answer), a session generation and a
// pattern handle, and the float64 values a bit-copy keeps and an
// arithmetic round trip would not.
func goldenResultCases() []struct {
	name   string
	r      engine.Result
	handle uint64
} {
	rng := rand.New(rand.NewSource(23))
	plain := make([]float64, 3100)
	for i := range plain {
		plain[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(80)-40)
	}
	special := []float64{
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with payload
		math.Float64frombits(0xfff0_0000_0000_0001), // signalling NaN, sign set
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
	}
	meta := engine.Result{Scheme: "rep", Why: "simplify: resident result", CacheHit: true,
		Elapsed: 4200 * time.Nanosecond}
	with := func(v []float64, gen uint64) engine.Result {
		r := meta
		r.Values, r.SessionGen = v, gen
		return r
	}
	return []struct {
		name   string
		r      engine.Result
		handle uint64
	}{
		{"empty", with(nil, 0), 0},
		{"one", with([]float64{-2.5}, 0), 0},
		{"plain", with(plain, 0), 0},
		{"session", with(plain[:1024], 7), 0},
		{"handle", with(plain[:257], 0), 300},
		{"special", with(special, 0), 0},
	}
}

// TestResultGoldenBytes pins the version-2 RESULT frame, whose values
// the version-1 goldens had recorded from the per-element codec the bulk
// one replaced. Each case is encoded eight
// times into one reused buffer that is dirty and non-empty on entry (the
// encoders append), then the golden is decoded into a destination with
// spare capacity, with exact capacity and with none, comparing
// Float64bits: NaN payloads, -0 and subnormals must survive both ways.
func TestResultGoldenBytes(t *testing.T) {
	scratch := make([]byte, 0, 64)
	for i, tc := range goldenResultCases() {
		jobID := uint64(40 + i)
		want := goldenHex(t, filepath.Join("testdata", "result", tc.name+".hex"),
			AppendResultHandle(nil, jobID, &tc.r, tc.handle))
		for n := 0; n < 8; n++ {
			off := 1 + 7*n
			scratch = scratch[:cap(scratch)]
			for j := range scratch {
				scratch[j] = 0xa5
			}
			scratch = AppendResultHandle(scratch[:off], jobID, &tc.r, tc.handle)
			if !bytes.Equal(scratch[off:], want) {
				t.Fatalf("%s: RESULT frame moved (encode %d at offset %d)\n got %x\nwant %x", tc.name, n+1, off, scratch[off:], want)
			}
			for j := 0; j < off; j++ {
				if scratch[j] != 0xa5 {
					t.Fatalf("%s: encoder wrote before its append point (byte %d)", tc.name, j)
				}
			}
		}
		f, n, err := DecodeFrame(want, 0)
		if err != nil || n != len(want) {
			t.Fatalf("%s: golden does not frame: n=%d err=%v", tc.name, n, err)
		}
		nv := len(tc.r.Values)
		for _, dst := range [][]float64{make([]float64, 3, nv+5), make([]float64, nv), nil} {
			back, handle, err := f.DecodeResultHandle(dst)
			if err != nil {
				t.Fatalf("%s: golden does not decode: %v", tc.name, err)
			}
			if handle != tc.handle || len(back.Values) != nv {
				t.Fatalf("%s: handle %d, %d values; want %d, %d", tc.name, handle, len(back.Values), tc.handle, nv)
			}
			if cap(dst) >= nv && nv > 0 && &back.Values[0] != &dst[:1][0] {
				t.Errorf("%s: a sized destination was not used", tc.name)
			}
			for j, v := range back.Values {
				if math.Float64bits(v) != math.Float64bits(tc.r.Values[j]) {
					t.Fatalf("%s: value %d decodes to %x, want %x", tc.name, j, math.Float64bits(v), math.Float64bits(tc.r.Values[j]))
				}
			}
			back.Values = tc.r.Values
			if !reflect.DeepEqual(back, tc.r) {
				t.Errorf("%s: golden decodes to %+v\nwant %+v", tc.name, back, tc.r)
			}
		}
	}
}
