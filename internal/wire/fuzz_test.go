package wire

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// FuzzDecodeFrame feeds arbitrary bytes through the full decode surface:
// frame parsing, every typed body decoder, and the streaming Reader. The
// invariant under test is that corrupt, truncated or hostile input always
// returns an error — the decoder never panics, never over-allocates past
// its caps, and anything it does accept is a structurally valid frame.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with one valid encoding of every frame type, plus mutations the
	// fuzzer can splice.
	rng := rand.New(rand.NewSource(1))
	l := randomLoop(rng)
	res := engine.Result{Values: []float64{1.5, -2, 0}, Scheme: "hash", Why: "w"}
	st := engine.Stats{Jobs: 9, Schemes: map[string]uint64{"rep": 9}}
	f.Add(AppendSubmit(nil, 1, l))
	f.Add(AppendResult(nil, 2, &res))
	f.Add(AppendHello(nil, Hello{Version: ProtoVersion, Procs: 8, MaxInflight: 64}))
	f.Add(AppendError(nil, 3, "e"))
	f.Add(AppendBusy(nil, 4, BusyConn))
	f.Add(AppendStatsReq(nil, 5))
	f.Add(AppendStats(nil, 6, &st))
	f.Add(AppendOpenSession(nil, 7, 1, l))
	f.Add(AppendDelta(nil, 8, 1, []reduction.RefDelta{{Pos: 2, Ref: 9}, {Pos: 40, Ref: 0}}))
	f.Add(AppendCloseSession(nil, 9, 1))
	f.Add(AppendSubmitRef(nil, 10, l.Fingerprint(), 3, 0))
	f.Add(AppendSubmitRef(nil, 11, l.Fingerprint(), 300, 0x9e3779b97f4a7c15))
	f.Add(AppendResultHandle(nil, 12, &res, 300))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 20 // keep hostile allocations small under fuzzing
		fr, n, err := DecodeFrame(data, maxFrame)
		if err == nil {
			if n < 4 || n > len(data) {
				t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(data))
			}
			exerciseTypedDecoders(t, fr)
		}
		// The streaming reader must agree with the flat decoder and
		// likewise never panic on a hostile stream.
		r := NewReader(bytes.NewReader(data), maxFrame)
		for {
			fr, err := r.Next()
			if err != nil {
				break
			}
			exerciseTypedDecoders(t, fr)
		}
	})
}

// TestSeedCorpusDecodes keeps the checked-in fuzz seed corpus
// (testdata/fuzz/FuzzDecodeFrame, regenerated by gen_corpus.go) honest:
// every seed must be a completely consumed frame its type's decoder
// accepts —
// a corpus of already-rejected inputs would teach the fuzzer nothing
// about the accepted grammar — and the seeds must jointly cover every
// frame type.
func TestSeedCorpusDecodes(t *testing.T) {
	covered := make(map[FrameType]bool)
	for name, s := range seedCorpus(t) {
		f, n, err := DecodeFrame(s, 0)
		if err != nil {
			t.Fatalf("%s: seed does not decode: %v", name, err)
		}
		if n != len(s) {
			t.Fatalf("%s: seed decoded %d of %d bytes", name, n, len(s))
		}
		if _, _, ok := reencode(f); !ok {
			t.Fatalf("%s: the %v decoder rejects the seed's body", name, f.Type)
		}
		covered[f.Type] = true
	}
	for ft := FrameHello; ft <= FrameSubmitRef; ft++ {
		if !covered[ft] {
			t.Errorf("no seed covers frame type %v", ft)
		}
	}
}

// seedCorpus reads the generated seeds of the checked-in FuzzDecodeFrame
// corpus, by file name.
func seedCorpus(t testing.TB) map[string][]byte {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	seeds := make(map[string][]byte)
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "seed-") {
			// The same directory is where `go test -fuzz` keeps
			// fuzz-found regression inputs, which are expected to decode
			// to errors; only the generated seeds must be valid frames.
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a v1 corpus file", e.Name())
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: corpus literal: %v", e.Name(), err)
		}
		seeds[e.Name()] = []byte(s)
	}
	return seeds
}

// FuzzFrameFixpoint holds the codec to one encoding per value. The
// decoders accept frames the encoders never emit — over-long varints,
// STATS keys this build does not know, a scheme listed twice — so an accepted
// input x need not be canonical; but y = encode(decode(x)) must decode to
// the value x did, and encoding that again must reproduce y byte for
// byte, for every frame type. Seeds: the FuzzDecodeFrame corpus and the
// RESULT goldens.
func FuzzFrameFixpoint(f *testing.F) {
	for _, s := range seedCorpus(f) {
		f.Add(s)
	}
	for _, tc := range goldenResultCases() {
		f.Add(AppendResultHandle(nil, 1, &tc.r, tc.handle))
	}
	f.Fuzz(func(t *testing.T, x []byte) {
		fx, _, err := DecodeFrame(x, 1<<20)
		if err != nil {
			return
		}
		vx, y, ok := reencode(fx)
		if !ok {
			return
		}
		fy, n, err := DecodeFrame(y, 0)
		if err != nil || n != len(y) {
			t.Fatalf("%v: re-encoding does not frame (%d of %d bytes): %v\n x %x\n y %x", fx.Type, n, len(y), err, x, y)
		}
		vy, z, ok := reencode(fy)
		if !ok {
			t.Fatalf("%v: the decoder rejects the encoder's own frame\n x %x\n y %x", fx.Type, x, y)
		}
		if !reflect.DeepEqual(vx, vy) {
			t.Fatalf("%v: value moved through encode/decode\n got %+v\nwant %+v\n x %x\n y %x", fx.Type, vy, vx, x, y)
		}
		if !bytes.Equal(y, z) {
			t.Fatalf("%v: encoding is not a fixpoint\n y %x\n z %x", fx.Type, y, z)
		}
	})
}

// reencode decodes f with its type's decoder and encodes the value again.
// val is the decoded value in a form reflect.DeepEqual can compare across
// round trips: floats as their bits (NaN payloads count, NaN != NaN must
// not), empty slices as nil, a loop's invocation count as the clamped
// value the engine reads. ok is false when the decoder rejects the body.
func reencode(f Frame) (val any, enc []byte, ok bool) {
	bits := func(v []float64) []uint64 {
		var b []uint64
		for _, x := range v {
			b = append(b, math.Float64bits(x))
		}
		return b
	}
	loopVal := func(l *trace.Loop) any {
		off, refs := l.Flat()
		return []any{l.Name, l.NumElems, l.ElemBytes, l.Op, bits([]float64{l.WorkPerIter, l.DataRefsPerIter}),
			l.InvocationCount(), append([]int32(nil), off...), append([]int32(nil), refs...)}
	}
	const maxElems = 1 << 16
	switch f.Type {
	case FrameHello:
		h, err := f.DecodeHello()
		return h, AppendHello(nil, h), err == nil // connection-scoped: always job 0
	case FrameSubmit:
		var l trace.Loop
		_, _, traceID, err := f.DecodeSubmitInto(&l, nil, nil, maxElems)
		if err != nil {
			return nil, nil, false
		}
		return []any{f.JobID, loopVal(&l), traceID}, AppendSubmitTraced(nil, f.JobID, &l, traceID), true
	case FrameSubmitRef:
		fp, handle, traceID, err := f.DecodeSubmitRef()
		return []any{f.JobID, fp, handle, traceID}, AppendSubmitRef(nil, f.JobID, fp, handle, traceID), err == nil
	case FrameResult:
		r, handle, err := f.DecodeResultHandle(nil)
		if err != nil {
			return nil, nil, false
		}
		enc = AppendResultHandle(nil, f.JobID, &r, handle)
		vals := bits(r.Values)
		r.Values = nil
		return []any{f.JobID, r, vals, handle}, enc, true
	case FrameError:
		msg, err := f.DecodeError()
		return []any{f.JobID, msg}, AppendError(nil, f.JobID, msg), err == nil
	case FrameBusy:
		code, err := f.DecodeBusy()
		return []any{f.JobID, code}, AppendBusy(nil, f.JobID, code), err == nil
	case FrameStatsReq:
		return f.JobID, AppendStatsReq(nil, f.JobID), f.DecodeStatsReq() == nil
	case FrameStats:
		s, err := f.DecodeStats()
		if err != nil {
			return nil, nil, false
		}
		return []any{f.JobID, s}, AppendStats(nil, f.JobID, &s), true
	case FrameOpenSession:
		var l trace.Loop
		sid, _, _, err := f.DecodeOpenSessionInto(&l, nil, nil, maxElems)
		if err != nil {
			return nil, nil, false
		}
		return []any{f.JobID, sid, loopVal(&l)}, AppendOpenSession(nil, f.JobID, sid, &l), true
	case FrameDelta:
		sid, ds, err := f.DecodeDelta(nil)
		return []any{f.JobID, sid, append([]reduction.RefDelta(nil), ds...)}, AppendDelta(nil, f.JobID, sid, ds), err == nil
	case FrameCloseSession:
		sid, err := f.DecodeCloseSession()
		return []any{f.JobID, sid}, AppendCloseSession(nil, f.JobID, sid), err == nil
	}
	return nil, nil, false
}

// exerciseTypedDecoders runs every body decoder against the frame; only
// the one matching fr.Type may succeed, and whatever it returns must hold
// the decoder's postconditions.
func exerciseTypedDecoders(t *testing.T, fr Frame) {
	t.Helper()
	if l, err := fr.DecodeSubmit(1 << 16); err == nil {
		if err := l.Validate(); err != nil {
			t.Fatalf("DecodeSubmit accepted an invalid loop: %v", err)
		}
	}
	var scratch trace.Loop
	fr.DecodeSubmitInto(&scratch, nil, nil, 1<<16)
	if r, _, err := fr.DecodeResultHandle(nil); err == nil {
		if len(r.Values) > len(fr.Body) {
			t.Fatalf("DecodeResultHandle postcondition violated: %+v", r)
		}
		// The handle-unaware entry point reads the same frames.
		if _, err := fr.DecodeResult(nil); err != nil {
			t.Fatalf("DecodeResult rejected a frame DecodeResultHandle accepted: %v", err)
		}
	}
	if _, handle, _, err := fr.DecodeSubmitRef(); err == nil && handle == 0 {
		t.Fatal("DecodeSubmitRef accepted a zero handle")
	}
	fr.DecodeHello()
	fr.DecodeError()
	fr.DecodeBusy()
	fr.DecodeStatsReq()
	if s, err := fr.DecodeStats(); err == nil {
		if len(s.Stages) > len(fr.Body) || len(s.Tenants) > len(fr.Body) || len(s.Schemes) > len(fr.Body) {
			t.Fatalf("DecodeStats over-allocated: %+v", s)
		}
	}
	var sessLoop trace.Loop
	if _, _, _, err := fr.DecodeOpenSessionInto(&sessLoop, nil, nil, 1<<16); err == nil {
		if err := sessLoop.Validate(); err != nil {
			t.Fatalf("DecodeOpenSessionInto accepted an invalid loop: %v", err)
		}
	}
	if _, ds, err := fr.DecodeDelta(nil); err == nil {
		// The count cap ties accepted batches to the payload that carried
		// them, and positions must come out strictly increasing.
		if len(ds) > len(fr.Body) {
			t.Fatalf("DecodeDelta over-allocated: %d deltas from %d bytes", len(ds), len(fr.Body))
		}
		for i := 1; i < len(ds); i++ {
			if ds[i].Pos <= ds[i-1].Pos {
				t.Fatalf("DecodeDelta positions not strictly increasing: %+v", ds)
			}
		}
	}
	fr.DecodeCloseSession()
}
