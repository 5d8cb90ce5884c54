package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// randomLoop builds a structurally valid loop with randomized shape: the
// property-test input space for the submit round trip.
func randomLoop(rng *rand.Rand) *trace.Loop {
	numElems := 1 + rng.Intn(2000)
	l := trace.NewLoop("rand", numElems)
	l.ElemBytes = 1 << uint(rng.Intn(5))
	l.Op = trace.Op(rng.Intn(4))
	l.WorkPerIter = rng.Float64() * 20
	l.DataRefsPerIter = rng.Float64() * 4
	l.Invocations = rng.Intn(50)
	iters := rng.Intn(200)
	for i := 0; i < iters; i++ {
		n := rng.Intn(4) // empty iterations included
		refs := make([]int32, n)
		for k := range refs {
			refs[k] = int32(rng.Intn(numElems))
		}
		l.AddIter(refs...)
	}
	return l
}

func TestSubmitRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		l := randomLoop(rng)
		buf := AppendSubmit(nil, uint64(trial)+1, l)
		f, n, err := DecodeFrame(buf, 0)
		if err != nil {
			t.Fatalf("trial %d: DecodeFrame: %v", trial, err)
		}
		if n != len(buf) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, n, len(buf))
		}
		if f.Type != FrameSubmit || f.JobID != uint64(trial)+1 {
			t.Fatalf("trial %d: frame header %v/%d", trial, f.Type, f.JobID)
		}
		got, err := f.DecodeSubmit(0)
		if err != nil {
			t.Fatalf("trial %d: DecodeSubmit: %v", trial, err)
		}
		if !l.EqualPattern(got) {
			t.Fatalf("trial %d: decoded loop pattern differs", trial)
		}
		if got.Name != l.Name || got.WorkPerIter != l.WorkPerIter ||
			got.DataRefsPerIter != l.DataRefsPerIter {
			t.Fatalf("trial %d: metadata differs: %+v", trial, got)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: decoded loop invalid: %v", trial, err)
		}
	}
}

func TestSubmitDecodeIntoReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var offsets, refs []int32
	l := &trace.Loop{}
	for trial := 0; trial < 50; trial++ {
		want := randomLoop(rng)
		buf := AppendSubmit(nil, 1, want)
		f, _, err := DecodeFrame(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		offsets, refs, _, err = f.DecodeSubmitInto(l, offsets, refs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualPattern(l) {
			t.Fatalf("trial %d: scratch decode differs", trial)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		want := engine.Result{
			Values:     make([]float64, rng.Intn(500)),
			Scheme:     "sel",
			Why:        "sparse pattern, high connectivity",
			CacheHit:   rng.Intn(2) == 0,
			Elapsed:    time.Duration(rng.Int63n(int64(time.Second))),
			SessionGen: uint64(rng.Intn(3)),
		}
		for i := range want.Values {
			want.Values[i] = rng.NormFloat64()
		}
		buf := AppendResult(nil, 42, &want)
		f, _, err := DecodeFrame(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Alternate between allocation and dst reuse.
		var dst []float64
		if trial%2 == 0 {
			dst = make([]float64, 0, 600)
		}
		got, err := f.DecodeResult(dst)
		if err != nil {
			t.Fatal(err)
		}
		if got.Scheme != want.Scheme || got.Why != want.Why ||
			got.CacheHit != want.CacheHit || got.Elapsed != want.Elapsed ||
			got.SessionGen != want.SessionGen {
			t.Fatalf("metadata mismatch: %+v vs %+v", got, want)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("value count %d, want %d", len(got.Values), len(want.Values))
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("value %d: %g != %g", i, got.Values[i], want.Values[i])
			}
		}
		if dst != nil && len(want.Values) > 0 && &got.Values[0] != &dst[:1][0] {
			t.Fatal("DecodeResult did not reuse dst with sufficient capacity")
		}
	}
}

// TestStatsRoundTrip: a snapshot with every part present — scalars, a
// scheme mix, stages and tenant rows — decodes to itself.
func TestStatsRoundTrip(t *testing.T) {
	want := engine.Stats{
		Jobs: 100, CacheHits: 80, CacheMisses: 20, Batches: 100,
		CacheEntries: 16, CacheEvictions: 3, SessionJobs: 7,
		Schemes: map[string]uint64{"rep": 50, "sel": 30, "pclr-Dir": 20},
		Stages:  []obs.StageSummary{{Name: "execute", Snap: obs.Snapshot{Count: 3, SumNs: 90, MaxNs: 40, Buckets: []uint64{0, 3}}}},
		Tenants: []engine.TenantStats{{Name: "acme", Weight: 4, Jobs: 9, Busy: 2,
			QueueWait: obs.Snapshot{Count: 9, SumNs: 81, MaxNs: 20, Buckets: []uint64{9}}}},
	}
	f, _, err := DecodeFrame(AppendStats(nil, 9, &want), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DecodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// keyedStats encodes a STATS frame whose engine-scalar run is written
// from rows instead of engine.StatsFields, with one tenant row written
// from tenantRows — the frame a peer with another schema sends.
func keyedStats(rows []obs.Field[engine.Stats], s *engine.Stats, tenantRows []obs.Field[engine.TenantStats], ts *engine.TenantStats) []byte {
	dst, p := beginFrame(nil, FrameStats, 1)
	dst = appendKeyed(dst, rows, s)
	dst = append(dst, 0, 0, 1) // no schemes, no stages, one tenant
	dst = appendString(dst, ts.Name)
	dst = appendKeyed(dst, tenantRows, ts)
	dst = appendSnapshot(dst, &ts.QueueWait)
	return endFrame(dst, p)
}

// TestStatsKeyedRows: the STATS scalars travel by key, so a key this
// build does not know (a newer peer's counter) is skipped and the rows
// around it still land, in the engine run and in a tenant row alike; a
// key sent twice is corrupt; and a row missing from the frame decodes as
// zero.
func TestStatsKeyedRows(t *testing.T) {
	s := engine.Stats{Jobs: 5, CacheHits: 3, CacheEvictions: 2}
	ts := engine.TenantStats{Name: "acme", Jobs: 4, Weight: 2}
	newer := append(slices.Clip(engine.StatsFields), obs.Field[engine.Stats]{Key: "from_a_newer_peer", U64: func(s *engine.Stats) *uint64 { return &s.Jobs }})
	newerTenant := append([]obs.Field[engine.TenantStats]{{Key: "tenant_counter_of_a_newer_peer", U64: func(t *engine.TenantStats) *uint64 { return &t.Jobs }}}, engine.TenantFields...)
	f, _, err := DecodeFrame(keyedStats(newer, &s, newerTenant, &ts), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DecodeStats()
	if err != nil {
		t.Fatalf("unknown keys not skipped: %v", err)
	}
	if got.Jobs != 5 || got.CacheHits != 3 || got.CacheEvictions != 2 || len(got.Tenants) != 1 || got.Tenants[0].Jobs != 4 || got.Tenants[0].Weight != 2 {
		t.Fatalf("rows around an unknown key: %+v", got)
	}

	older := engine.StatsFields[:2] // engine_jobs, cache_hits
	f, _, _ = DecodeFrame(keyedStats(older, &s, engine.TenantFields, &ts), 0)
	if got, err = f.DecodeStats(); err != nil || got.Jobs != 5 || got.CacheHits != 3 || got.CacheEvictions != 0 {
		t.Fatalf("frame without the later rows: %+v, %v", got, err)
	}

	twice := append(slices.Clip(engine.StatsFields), engine.StatsFields[0])
	f, _, _ = DecodeFrame(keyedStats(twice, &s, engine.TenantFields, &ts), 0)
	if _, err := f.DecodeStats(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate engine key: %v, want ErrCorrupt", err)
	}
	twiceTenant := append(slices.Clip(engine.TenantFields), engine.TenantFields[0])
	f, _, _ = DecodeFrame(keyedStats(engine.StatsFields, &s, twiceTenant, &ts), 0)
	if _, err := f.DecodeStats(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate tenant key: %v, want ErrCorrupt", err)
	}
}

func TestSmallFramesRoundTrip(t *testing.T) {
	buf := AppendHello(nil, Hello{Version: ProtoVersion, Procs: 8, MaxInflight: 64})
	buf = AppendError(buf, 7, "loop rejected")
	buf = AppendBusy(buf, 8, BusyGlobal)
	buf = AppendStatsReq(buf, 9)

	r := NewReader(bytes.NewReader(buf), 0)
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.DecodeHello()
	if err != nil || h.Version != ProtoVersion || h.Procs != 8 || h.MaxInflight != 64 {
		t.Fatalf("hello %+v, err %v", h, err)
	}
	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := f.DecodeError()
	if err != nil || f.JobID != 7 || msg != "loop rejected" {
		t.Fatalf("error frame %q/%d, err %v", msg, f.JobID, err)
	}
	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	code, err := f.DecodeBusy()
	if err != nil || f.JobID != 8 || code != BusyGlobal {
		t.Fatalf("busy frame %d/%d, err %v", code, f.JobID, err)
	}
	f, err = r.Next()
	if err != nil || f.Type != FrameStatsReq || f.JobID != 9 {
		t.Fatalf("statsreq frame %+v, err %v", f, err)
	}
	if _, err = r.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF at stream end, got %v", err)
	}
}

// TestBusyCodes round-trips every defined rejection code and pins that
// out-of-range codes are corrupt, not silently accepted.
func TestBusyCodes(t *testing.T) {
	for _, code := range []BusyCode{BusyConn, BusyGlobal, BusyUpstream, BusySession, BusyTenant} {
		f, _, err := DecodeFrame(AppendBusy(nil, 3, code), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.DecodeBusy()
		if err != nil || got != code {
			t.Fatalf("busy %v round-tripped to %v, err %v", code, got, err)
		}
		if got.String() == "" || got.String() == fmt.Sprintf("BusyCode(%d)", uint8(code)) {
			t.Fatalf("busy %d has no String name", uint8(code))
		}
	}
	f, _, err := DecodeFrame(AppendBusy(nil, 3, BusyCode(6)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeBusy(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown busy code decoded: %v", err)
	}
	if got := BusyCode(6).String(); got != "BusyCode(6)" {
		t.Fatalf("out-of-range BusyCode String = %q", got)
	}
}

func TestPreamble(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePreamble(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := ReadPreamble(&buf)
	if err != nil || v != ProtoVersion {
		t.Fatalf("preamble version %d, err %v", v, err)
	}
	if _, err := ReadPreamble(bytes.NewReader([]byte("HTTP/1.1 "))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := ReadPreamble(bytes.NewReader([]byte{'R', 'D', 'X', 'P', 99})); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := ReadPreamble(bytes.NewReader([]byte{'R', 'D'})); err == nil {
		t.Fatal("truncated preamble accepted")
	}
}

// everyFrame returns one valid encoding of each of the 11 frame types
// (two of RESULT: one-shot with a handle, and a session answer).
func everyFrame() [][]byte {
	l := randomLoop(rand.New(rand.NewSource(5)))
	res := engine.Result{Values: []float64{1, 2, 3}, Scheme: "rep", Why: "w"}
	sres := engine.Result{Values: []float64{4, 5}, Scheme: "session", SessionGen: 9}
	return [][]byte{
		AppendHello(nil, Hello{Version: ProtoVersion, Procs: 4, MaxInflight: 8, Flags: HelloFlagGateway, Tenant: "acme"}),
		AppendSubmitTraced(nil, 1, l, 0xdeadbeef),
		AppendResultHandle(nil, 2, &res, 300),
		AppendResult(nil, 3, &sres),
		AppendError(nil, 4, "boom"),
		AppendBusy(nil, 5, BusyTenant),
		AppendStatsReq(nil, 300),
		AppendStats(nil, 6, &engine.Stats{Jobs: 7, Schemes: map[string]uint64{"ll": 1},
			Stages: []obs.StageSummary{{Name: "execute", Snap: obs.Snapshot{Count: 1, SumNs: 9, MaxNs: 9, Buckets: []uint64{1}}}},
			Tenants: []engine.TenantStats{{Name: "acme", Weight: 4, Jobs: 7,
				QueueWait: obs.Snapshot{Count: 1, SumNs: 9, MaxNs: 9, Buckets: []uint64{1}}}}}),
		AppendOpenSession(nil, 7, 2, l),
		AppendDelta(nil, 8, 2, []reduction.RefDelta{{Pos: 0, Ref: 1}, {Pos: 5, Ref: 0}}),
		AppendCloseSession(nil, 9, 2),
		AppendSubmitRef(nil, 10, 0x9e3779b97f4a7c15, 5, 0xdeadbeef),
	}
}

// TestTruncatedFramesError slices a valid frame at every possible length:
// each prefix must decode to an error, never a panic and never a bogus
// success.
func TestTruncatedFramesError(t *testing.T) {
	for fi, full := range everyFrame() {
		for n := 0; n < len(full); n++ {
			if _, _, err := DecodeFrame(full[:n], 0); err == nil {
				t.Fatalf("frame %d truncated to %d bytes decoded without error", fi, n)
			}
		}
	}
}

// reframe returns frame b with its body replaced by body and the length
// prefix patched, so the frame itself parses.
func reframe(b []byte, body []byte) []byte {
	f, _, err := DecodeFrame(b, 0)
	if err != nil {
		panic(err)
	}
	head := len(b) - len(f.Body)
	out := append(append([]byte(nil), b[:head]...), body...)
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	return out
}

// TestFixedLayoutRejectsShortAndLong: version 2 has one layout per frame
// type and every field is mandatory, so each type's decoder rejects a
// body one byte short and a body with one byte more. (STATSREQ's body is
// empty: it has no short form.)
func TestFixedLayoutRejectsShortAndLong(t *testing.T) {
	covered := map[FrameType]bool{}
	for _, full := range everyFrame() {
		f, _, err := DecodeFrame(full, 0)
		if err != nil {
			t.Fatal(err)
		}
		covered[f.Type] = true
		if _, _, ok := reencode(f); !ok {
			t.Fatalf("%v: the valid frame does not decode", f.Type)
		}
		variants := map[string][]byte{"one trailing byte": append(slices.Clip(f.Body), 0)}
		if len(f.Body) > 0 {
			variants["one byte short"] = f.Body[:len(f.Body)-1]
		}
		for name, body := range variants {
			g, _, err := DecodeFrame(reframe(full, body), 0)
			if err != nil {
				t.Fatalf("%v %s: the frame does not parse: %v", f.Type, name, err)
			}
			if _, _, ok := reencode(g); ok {
				t.Errorf("%v: a body %s decodes", f.Type, name)
			}
		}
	}
	for ft := FrameHello; ft <= FrameSubmitRef; ft++ {
		if !covered[ft] {
			t.Errorf("no case covers %v", ft)
		}
	}
}

// TestResultDecodeAllocsNothing: decoding a RESULT into a sized
// destination allocates nothing — the scheme and rationale come from the
// intern table after their first sight.
func TestResultDecodeAllocsNothing(t *testing.T) {
	res := engine.Result{Values: make([]float64, 512), Scheme: "simplify", Why: "resident result: one copy", CacheHit: true}
	f, _, err := DecodeFrame(AppendResultHandle(nil, 7, &res, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.DecodeResult(dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeResult allocates %.1f times per call", allocs)
	}
	r1, _ := f.DecodeResult(dst)
	r2, _ := f.DecodeResult(dst)
	if r1.Scheme != res.Scheme || r1.Why != res.Why || unsafe.StringData(r1.Why) != unsafe.StringData(r2.Why) {
		t.Fatal("repeated decodes do not share one interned rationale")
	}
}

// TestReaderTruncatedStream cuts the byte stream mid-frame and checks the
// Reader surfaces io.ErrUnexpectedEOF rather than hanging or panicking.
func TestReaderTruncatedStream(t *testing.T) {
	full := AppendError(nil, 1, "x")
	for n := 1; n < len(full); n++ {
		r := NewReader(bufio.NewReader(bytes.NewReader(full[:n])), 0)
		if _, err := r.Next(); err == nil {
			t.Fatalf("truncation at %d bytes not reported", n)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	buf := AppendError(nil, 1, "this frame is bigger than the tiny limit")
	if _, _, err := DecodeFrame(buf, 8); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	r := NewReader(bytes.NewReader(buf), 8)
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("reader oversized frame: %v", err)
	}
}

func TestDecodeRejectsWrongType(t *testing.T) {
	buf := AppendError(nil, 1, "x")
	f, _, err := DecodeFrame(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeResult(nil); !errors.Is(err, ErrType) {
		t.Fatalf("DecodeResult on ERROR frame: %v", err)
	}
	if _, err := f.DecodeSubmit(0); !errors.Is(err, ErrType) {
		t.Fatalf("DecodeSubmit on ERROR frame: %v", err)
	}
}

func TestSubmitRejectsOversizedLoop(t *testing.T) {
	l := trace.NewLoop("big", 4096)
	l.AddIter(4095)
	buf := AppendSubmit(nil, 1, l)
	f, _, err := DecodeFrame(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeSubmit(1024); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized loop accepted: %v", err)
	}
}

// randomDeltaBatch draws a strictly-increasing-position batch, the shape
// the delta encoding requires (positions gap-encoded, refs delta-coded).
func randomDeltaBatch(rng *rand.Rand, maxPos, maxRef, n int) []reduction.RefDelta {
	ds := make([]reduction.RefDelta, 0, n)
	pos := -1
	for i := 0; i < n; i++ {
		pos += 1 + rng.Intn(maxPos/n+1)
		if pos >= maxPos {
			break
		}
		ds = append(ds, reduction.RefDelta{Pos: int32(pos), Ref: int32(rng.Intn(maxRef))})
	}
	return ds
}

// TestOpenSessionRoundTrip is the submit property test for OPEN_SESSION:
// the frame is a session id plus the SUBMIT loop body, so every loop the
// submit path accepts must survive this path too.
func TestOpenSessionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		l := randomLoop(rng)
		sid := rng.Uint64() + 1
		buf := AppendOpenSession(nil, uint64(trial)+1, sid, l)
		f, n, err := DecodeFrame(buf, 0)
		if err != nil {
			t.Fatalf("trial %d: DecodeFrame: %v", trial, err)
		}
		if n != len(buf) || f.Type != FrameOpenSession || f.JobID != uint64(trial)+1 {
			t.Fatalf("trial %d: frame header %v/%d (%d of %d bytes)", trial, f.Type, f.JobID, n, len(buf))
		}
		got := &trace.Loop{}
		gotSID, _, _, err := f.DecodeOpenSessionInto(got, nil, nil, 0)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if gotSID != sid {
			t.Fatalf("trial %d: session id %d, want %d", trial, gotSID, sid)
		}
		if !l.EqualPattern(got) || got.Name != l.Name {
			t.Fatalf("trial %d: decoded loop differs", trial)
		}
	}
}

// TestDeltaRoundTrip covers the SUBMIT_DELTA encoding: gap-coded
// positions, zigzag-delta refs, empty batches, scratch reuse, and the
// invalid shapes (truncation and count overflow) that must be corrupt.
func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var scratch []reduction.RefDelta
	for trial := 0; trial < 200; trial++ {
		want := randomDeltaBatch(rng, 1+rng.Intn(5000), 1+rng.Intn(2000), rng.Intn(40))
		sid := rng.Uint64()
		buf := AppendDelta(nil, 7, sid, want)
		f, n, err := DecodeFrame(buf, 0)
		if err != nil {
			t.Fatalf("trial %d: DecodeFrame: %v", trial, err)
		}
		if n != len(buf) || f.Type != FrameDelta {
			t.Fatalf("trial %d: frame header %v (%d of %d bytes)", trial, f.Type, n, len(buf))
		}
		var gotSID uint64
		gotSID, scratch, err = f.DecodeDelta(scratch)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if gotSID != sid || len(scratch) != len(want) {
			t.Fatalf("trial %d: sid %d count %d, want %d and %d", trial, gotSID, len(scratch), sid, len(want))
		}
		for i := range want {
			if scratch[i] != want[i] {
				t.Fatalf("trial %d delta %d: %+v, want %+v", trial, i, scratch[i], want[i])
			}
		}
	}

	// Truncating anywhere inside the frame is an error, never a panic.
	full := AppendDelta(nil, 7, 3, randomDeltaBatch(rng, 100, 50, 10))
	for n := 0; n < len(full); n++ {
		if _, _, err := DecodeFrame(full[:n], 0); err == nil {
			t.Fatalf("delta frame truncated to %d bytes decoded without error", n)
		}
	}
	// A delta count exceeding what the remaining payload could hold is
	// corrupt before any allocation.
	f, _, err := DecodeFrame(countBombDelta(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.DecodeDelta(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized delta count decoded: %v", err)
	}
}

// countBombDelta hand-builds a SUBMIT_DELTA frame claiming far more
// deltas than its payload holds.
func countBombDelta() []byte {
	b := AppendCloseSession(nil, 7, 3) // session id 3, right header shape
	b[4] = byte(FrameDelta)
	b = binary.AppendUvarint(b, 1<<30) // delta count with no bytes behind it
	n := uint32(len(b) - 4)
	b[0], b[1], b[2], b[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return b
}

// TestCloseSessionRoundTrip pins the CLOSE_SESSION frame and its
// trailing-byte strictness.
func TestCloseSessionRoundTrip(t *testing.T) {
	buf := AppendCloseSession(nil, 11, 42)
	f, n, err := DecodeFrame(buf, 0)
	if err != nil || n != len(buf) || f.Type != FrameCloseSession || f.JobID != 11 {
		t.Fatalf("frame %v/%d (%d bytes), err %v", f.Type, f.JobID, n, err)
	}
	sid, err := f.DecodeCloseSession()
	if err != nil || sid != 42 {
		t.Fatalf("session id %d, err %v", sid, err)
	}
	trailing := append(append([]byte(nil), buf...), 0)
	ln := uint32(len(trailing) - 4)
	trailing[0], trailing[1], trailing[2], trailing[3] = byte(ln), byte(ln>>8), byte(ln>>16), byte(ln>>24)
	f, _, err = DecodeFrame(trailing, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeCloseSession(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	b := GetBuffer()
	b.B = AppendStatsReq(b.B, 1)
	if len(b.B) == 0 {
		t.Fatal("empty encoding")
	}
	b.Free()
	c := GetBuffer()
	if len(c.B) != 0 {
		t.Fatal("pooled buffer not reset")
	}
	c.Free()
}

func goldenLoop() *trace.Loop {
	l := trace.NewLoop("golden", 64)
	l.WorkPerIter = 2.5
	l.Invocations = 3
	l.AddIter(1, 5, 9)
	l.AddIter(5, 5, 63)
	l.AddIter(0)
	l.AddIter(62, 2, 33, 7)
	return l
}

// TestSubmitRefRoundTrip covers the reference frame: it round-trips with
// and without a trace ID, costs a few bytes where the SUBMIT it stands
// for costs the whole subscript stream, and rejects a zero handle,
// trailing bytes and every other frame type's decoder.
func TestSubmitRefRoundTrip(t *testing.T) {
	l := goldenLoop()
	fp := l.Fingerprint()
	for _, traceID := range []uint64{0, 0xdeadbeef} {
		b := AppendSubmitRef(nil, 9, fp, 41, traceID)
		f, n, err := DecodeFrame(b, 0)
		if err != nil || n != len(b) || f.Type != FrameSubmitRef || f.JobID != 9 {
			t.Fatalf("frame %+v n=%d err=%v", f, n, err)
		}
		gotFP, handle, gotTrace, err := f.DecodeSubmitRef()
		if err != nil || gotFP != fp || handle != 41 || gotTrace != traceID {
			t.Fatalf("decoded fp %x handle %d trace %x err %v", gotFP, handle, gotTrace, err)
		}
		if _, err := f.DecodeSubmit(0); !errors.Is(err, ErrType) {
			t.Fatalf("DecodeSubmit on SUBMIT_REF: %v", err)
		}
	}
	ref, full := AppendSubmitRef(nil, 9, fp, 41, 0), AppendSubmit(nil, 9, l)
	if len(ref) > 24 || len(ref) >= len(full) {
		t.Fatalf("reference frame is %d bytes (full SUBMIT %d)", len(ref), len(full))
	}
	if FrameSubmitRef.String() != "SUBMIT_REF" {
		t.Fatalf("frame name %q", FrameSubmitRef.String())
	}

	zero := AppendSubmitRef(nil, 9, fp, 0, 0)
	f, _, err := DecodeFrame(zero, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.DecodeSubmitRef(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero handle accepted: %v", err)
	}
	f.Body = append(append([]byte(nil), AppendSubmitRef(nil, 9, fp, 41, 7)[6:]...), 0x01)
	if _, _, _, err := f.DecodeSubmitRef(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
	f, _, _ = DecodeFrame(full, 0)
	if _, _, _, err := f.DecodeSubmitRef(); !errors.Is(err, ErrType) {
		t.Fatalf("DecodeSubmitRef on SUBMIT: %v", err)
	}
}
