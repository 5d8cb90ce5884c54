package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

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
			Values:    make([]float64, rng.Intn(500)),
			Scheme:    "sel",
			Why:       "sparse pattern, high connectivity",
			CacheHit:  rng.Intn(2) == 0,
			BatchSize: 1 + rng.Intn(32),
			Elapsed:   time.Duration(rng.Int63n(int64(time.Second))),
			Imbalance: rng.Float64() * 3,
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
			got.CacheHit != want.CacheHit || got.BatchSize != want.BatchSize ||
			got.Elapsed != want.Elapsed || got.Imbalance != want.Imbalance {
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

func TestStatsRoundTrip(t *testing.T) {
	want := engine.Stats{
		Jobs: 100, CacheHits: 80, CacheMisses: 20,
		Batches: 40, Coalesced: 60,
		CacheEntries: 16, CacheEvictions: 3,
		Schemes:        map[string]uint64{"rep": 50, "sel": 30, "pclr-Dir": 20},
		BatchOccupancy: []uint64{0, 10, 5, 0, 25},
	}
	buf := AppendStats(nil, 9, &want)
	f, _, err := DecodeFrame(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DecodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs != want.Jobs || got.CacheHits != want.CacheHits ||
		got.CacheMisses != want.CacheMisses || got.Batches != want.Batches ||
		got.Coalesced != want.Coalesced || got.CacheEntries != want.CacheEntries ||
		got.CacheEvictions != want.CacheEvictions {
		t.Fatalf("counters mismatch: %+v", got)
	}
	if len(got.BatchOccupancy) != len(want.BatchOccupancy) {
		t.Fatalf("occupancy length %d", len(got.BatchOccupancy))
	}
	for i, v := range want.BatchOccupancy {
		if got.BatchOccupancy[i] != v {
			t.Fatalf("occupancy[%d] = %d, want %d", i, got.BatchOccupancy[i], v)
		}
	}
	if len(got.Schemes) != len(want.Schemes) {
		t.Fatalf("schemes %v", got.Schemes)
	}
	for k, v := range want.Schemes {
		if got.Schemes[k] != v {
			t.Fatalf("scheme %s = %d, want %d", k, got.Schemes[k], v)
		}
	}
}

// TestStatsRecalCompat pins the optional-trailing-pair rule the
// recalibration counters ride on, mirroring TestHelloFlagsCompat: a
// frame without the tail (what a pre-recalibration peer emits) decodes
// with both counters zero, a tailed frame round-trips, and the encoder
// omits the pair when both are zero so old decoders that reject trailing
// bytes would still accept it.
func TestStatsRecalCompat(t *testing.T) {
	legacy := AppendStats(nil, 9, &engine.Stats{Jobs: 5, Schemes: map[string]uint64{"rep": 5}})
	tailed := AppendStats(nil, 9, &engine.Stats{
		Jobs: 5, Schemes: map[string]uint64{"rep": 5},
		Recalibrations: 7, SchemeSwitches: 2,
	})
	if len(tailed) != len(legacy)+2 {
		t.Fatalf("tailed frame %d bytes vs legacy %d: recal pair not trailing", len(tailed), len(legacy))
	}
	f, _, err := DecodeFrame(legacy, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.DecodeStats()
	if err != nil || s.Recalibrations != 0 || s.SchemeSwitches != 0 {
		t.Fatalf("legacy stats decoded to recal %d/%d, err %v (want 0/0)", s.Recalibrations, s.SchemeSwitches, err)
	}
	f, _, err = DecodeFrame(tailed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = f.DecodeStats(); err != nil || s.Recalibrations != 7 || s.SchemeSwitches != 2 {
		t.Fatalf("tailed stats decoded to recal %d/%d, err %v (want 7/2)", s.Recalibrations, s.SchemeSwitches, err)
	}
	// A half-pair (recalibrations without switches) is corrupt.
	f, _, err = DecodeFrame(halfPairStats(legacy), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeStats(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("half recal pair decoded without error: %v", err)
	}
}

// halfPairStats rebuilds a legacy STATS frame with one extra trailing
// uvarint — the invalid half of the recalibration pair.
func halfPairStats(legacy []byte) []byte {
	b := append([]byte(nil), legacy...)
	b = append(b, 7) // one more uvarint in the payload
	n := uint32(len(b) - 4)
	b[0], b[1], b[2], b[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return b
}

// TestStatsSimplifyCompat pins the second optional tail — the
// simplification quad after the recalibration pair: pair-only frames
// decode with the quad zero, a quad frame round-trips (forcing the pair
// out even when it is zero, since tails decode positionally), and
// legacy frames decode with everything zero.
func TestStatsSimplifyCompat(t *testing.T) {
	base := engine.Stats{Jobs: 5, Schemes: map[string]uint64{"rep": 5}}
	legacy := AppendStats(nil, 9, &base)

	quad := base
	quad.SimplifiedBatches, quad.SimplifyFallbacks = 11, 3
	quad.SegsComputed, quad.SegsReused = 40, 120
	tailed := AppendStats(nil, 9, &quad)
	// Zero recal pair (2 bytes) + four single-byte counters.
	if len(tailed) != len(legacy)+6 {
		t.Fatalf("quad frame %d bytes vs legacy %d: quad not trailing after the pair", len(tailed), len(legacy))
	}
	f, _, err := DecodeFrame(tailed, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.DecodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.SimplifiedBatches != 11 || s.SimplifyFallbacks != 3 ||
		s.SegsComputed != 40 || s.SegsReused != 120 {
		t.Fatalf("quad round-trip = %d/%d/%d/%d", s.SimplifiedBatches, s.SimplifyFallbacks, s.SegsComputed, s.SegsReused)
	}
	if s.Recalibrations != 0 || s.SchemeSwitches != 0 {
		t.Fatalf("zero recal pair decoded as %d/%d", s.Recalibrations, s.SchemeSwitches)
	}

	// A pair-only frame (a recalibrating peer without simplification)
	// decodes with the quad zero.
	pairOnly := base
	pairOnly.Recalibrations = 7
	f, _, err = DecodeFrame(AppendStats(nil, 9, &pairOnly), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = f.DecodeStats(); err != nil || s.SimplifiedBatches != 0 || s.SegsReused != 0 {
		t.Fatalf("pair-only frame decoded quad %d/%d, err %v", s.SimplifiedBatches, s.SegsReused, err)
	}

	// A partial quad is corrupt.
	f, _, err = DecodeFrame(halfPairStats(AppendStats(nil, 9, &pairOnly)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeStats(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial quad decoded without error: %v", err)
	}
}

// TestSubmitTraceCompat pins the SUBMIT frame's optional trailing trace
// ID on the HELLO-flags rule: untraced frames are byte-identical to the
// pre-trace encoding and decode with trace ID 0; traced frames
// round-trip; a truncated trace ID is corrupt.
func TestSubmitTraceCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := randomLoop(rng)
	legacy := AppendSubmit(nil, 1, l)
	zeroTraced := AppendSubmitTraced(nil, 1, l, 0)
	if !bytes.Equal(legacy, zeroTraced) {
		t.Fatal("zero trace ID changed the SUBMIT encoding")
	}
	traced := AppendSubmitTraced(nil, 1, l, 0xdeadbeef)
	if len(traced) <= len(legacy) {
		t.Fatalf("traced frame (%d bytes) not longer than legacy (%d)", len(traced), len(legacy))
	}

	f, _, err := DecodeFrame(legacy, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := &trace.Loop{}
	_, _, id, err := f.DecodeSubmitInto(got, nil, nil, 0)
	if err != nil || id != 0 {
		t.Fatalf("legacy submit decoded trace id %d, err %v (want 0)", id, err)
	}

	f, _, err = DecodeFrame(traced, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, id, err = f.DecodeSubmitInto(got, nil, nil, 0); err != nil || id != 0xdeadbeef {
		t.Fatalf("traced submit decoded trace id %#x, err %v (want 0xdeadbeef)", id, err)
	}
	if !l.EqualPattern(got) {
		t.Fatal("traced submit corrupted the loop pattern")
	}

	// A truncated trace ID (multi-byte uvarint cut before its terminator)
	// is corrupt, not silently zero. 0xdeadbeef encodes to 5 bytes, so
	// dropping the last byte leaves a dangling continuation bit.
	cut := append([]byte(nil), traced[:len(traced)-1]...)
	n := uint32(len(cut) - 4)
	cut[0], cut[1], cut[2], cut[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	f, _, err = DecodeFrame(cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.DecodeSubmitInto(got, nil, nil, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated trace id decoded without error: %v", err)
	}
}

// TestStatsHistCompat pins the third optional STATS tail — the
// stage-latency histogram summary after the simplification quad. The
// matrix: legacy (no tails), pair-only, quad, and hist frames all decode
// with the correct fields zero or present; a hist frame forces the pair
// and quad out even when zero (positional tails); truncated hist tails
// are corrupt.
func TestStatsHistCompat(t *testing.T) {
	base := engine.Stats{Jobs: 5, Schemes: map[string]uint64{"rep": 5}}
	stages := []obs.StageSummary{
		{Name: "execute", Snap: obs.Snapshot{Count: 3, SumNs: 3000, MaxNs: 1500, Buckets: []uint64{0, 1, 2}}},
		{Name: "queue_wait", Snap: obs.Snapshot{Count: 2, SumNs: 10, MaxNs: 7, Buckets: []uint64{1, 0, 0, 1}}},
	}

	legacy := AppendStats(nil, 9, &base)
	withHist := base
	withHist.Stages = stages
	tailed := AppendStats(nil, 9, &withHist)
	if len(tailed) <= len(legacy)+6 {
		t.Fatalf("hist frame %d bytes vs legacy %d: hist tail (and forced pair+quad) missing", len(tailed), len(legacy))
	}

	decode := func(buf []byte) (engine.Stats, error) {
		f, _, err := DecodeFrame(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f.DecodeStats()
	}

	// Legacy decodes with no stages.
	s, err := decode(legacy)
	if err != nil || len(s.Stages) != 0 {
		t.Fatalf("legacy stats decoded %d stages, err %v", len(s.Stages), err)
	}
	// Pair-only and quad frames (earlier tails) decode with no stages.
	pairOnly := base
	pairOnly.Recalibrations = 7
	if s, err = decode(AppendStats(nil, 9, &pairOnly)); err != nil || len(s.Stages) != 0 {
		t.Fatalf("pair-only stats decoded %d stages, err %v", len(s.Stages), err)
	}
	quad := base
	quad.SegsReused = 11
	if s, err = decode(AppendStats(nil, 9, &quad)); err != nil || len(s.Stages) != 0 {
		t.Fatalf("quad stats decoded %d stages, err %v", len(s.Stages), err)
	}

	// The hist frame round-trips, zero pair and quad included.
	s, err = decode(tailed)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recalibrations != 0 || s.SimplifiedBatches != 0 {
		t.Fatalf("forced-out zero tails decoded as %d/%d", s.Recalibrations, s.SimplifiedBatches)
	}
	if len(s.Stages) != 2 {
		t.Fatalf("hist round-trip: %d stages", len(s.Stages))
	}
	for i, want := range stages {
		got := s.Stages[i]
		if got.Name != want.Name || got.Snap.Count != want.Snap.Count ||
			got.Snap.SumNs != want.Snap.SumNs || got.Snap.MaxNs != want.Snap.MaxNs {
			t.Fatalf("stage %d = %+v, want %+v", i, got, want)
		}
		if len(got.Snap.Buckets) != len(want.Snap.Buckets) {
			t.Fatalf("stage %d buckets %v, want %v", i, got.Snap.Buckets, want.Snap.Buckets)
		}
		for b := range want.Snap.Buckets {
			if got.Snap.Buckets[b] != want.Snap.Buckets[b] {
				t.Fatalf("stage %d bucket %d = %d, want %d", i, b, got.Snap.Buckets[b], want.Snap.Buckets[b])
			}
		}
	}
	// Every earlier tail rides along undisturbed when also set.
	full := withHist
	full.Recalibrations, full.SegsReused = 7, 11
	if s, err = decode(AppendStats(nil, 9, &full)); err != nil ||
		s.Recalibrations != 7 || s.SegsReused != 11 || len(s.Stages) != 2 {
		t.Fatalf("full-tails frame decoded %d/%d/%d stages, err %v", s.Recalibrations, s.SegsReused, len(s.Stages), err)
	}

	// Truncating the hist tail anywhere inside it is corrupt. The tailed
	// frame's prefix through the forced-out zero tails is the legacy
	// encoding plus 2 bytes of zero pair and 4 of zero quad; cutting
	// exactly there is a valid quad frame, so start one byte past it.
	histStart := len(legacy) + 6
	for n := histStart + 1; n < len(tailed); n++ {
		cut := append([]byte(nil), tailed[:n]...)
		ln := uint32(len(cut) - 4)
		cut[0], cut[1], cut[2], cut[3] = byte(ln), byte(ln>>8), byte(ln>>16), byte(ln>>24)
		f, _, err := DecodeFrame(cut, 0)
		if err != nil {
			continue // header-level truncation already rejected
		}
		if _, err := f.DecodeStats(); err == nil {
			t.Fatalf("hist tail truncated to %d bytes decoded without error", n)
		}
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

// TestHelloFlagsCompat pins the optional-trailing-field rule HELLO's
// flags ride on: a flagless frame (what a pre-gateway peer emits) decodes
// with Flags == 0, a flagged frame round-trips, and the encoder omits the
// field entirely when flags are zero so old decoders that reject trailing
// bytes would still accept it.
func TestHelloFlagsCompat(t *testing.T) {
	legacy := AppendHello(nil, Hello{Version: ProtoVersion, Procs: 4, MaxInflight: 8})
	flagged := AppendHello(nil, Hello{Version: ProtoVersion, Procs: 4, MaxInflight: 8, Flags: HelloFlagGateway})
	if len(flagged) <= len(legacy) {
		t.Fatalf("flagged frame (%d bytes) not longer than legacy (%d): flags field missing", len(flagged), len(legacy))
	}
	f, _, err := DecodeFrame(legacy, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.DecodeHello()
	if err != nil || h.Flags != 0 {
		t.Fatalf("legacy hello decoded to %+v, err %v (want Flags 0)", h, err)
	}
	f, _, err = DecodeFrame(flagged, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h, err = f.DecodeHello(); err != nil || h.Flags != HelloFlagGateway {
		t.Fatalf("flagged hello decoded to %+v, err %v (want gateway flag)", h, err)
	}
}

// TestHelloTenantCompat pins the HELLO frame's optional trailing tenant
// field: tenantless frames are byte-identical to the pre-tenant encoding
// and decode with Tenant empty, a tenant frame forces the flags field out
// (positional tails) and round-trips, flags and tenant ride together, and
// a truncated tenant string is corrupt.
func TestHelloTenantCompat(t *testing.T) {
	legacy := AppendHello(nil, Hello{Version: ProtoVersion, Procs: 4, MaxInflight: 8})
	tenant := AppendHello(nil, Hello{Version: ProtoVersion, Procs: 4, MaxInflight: 8, Tenant: "acme"})
	// Forced-out zero flags (1 byte) + length-prefixed name (1+4 bytes).
	if len(tenant) != len(legacy)+6 {
		t.Fatalf("tenant frame %d bytes vs legacy %d, want +6", len(tenant), len(legacy))
	}

	f, _, err := DecodeFrame(legacy, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.DecodeHello()
	if err != nil || h.Tenant != "" {
		t.Fatalf("legacy hello decoded tenant %q, err %v (want empty)", h.Tenant, err)
	}

	f, _, err = DecodeFrame(tenant, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h, err = f.DecodeHello(); err != nil || h.Tenant != "acme" || h.Flags != 0 {
		t.Fatalf("tenant hello decoded to %+v, err %v", h, err)
	}

	both := AppendHello(nil, Hello{Version: ProtoVersion, Procs: 4, MaxInflight: 8, Flags: HelloFlagGateway, Tenant: "acme"})
	f, _, err = DecodeFrame(both, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h, err = f.DecodeHello(); err != nil || h.Tenant != "acme" || h.Flags != HelloFlagGateway {
		t.Fatalf("flags+tenant hello decoded to %+v, err %v", h, err)
	}

	// Cutting inside the tenant string (after its length prefix) is
	// corrupt, not silently empty.
	cut := append([]byte(nil), tenant[:len(tenant)-2]...)
	ln := uint32(len(cut) - 4)
	cut[0], cut[1], cut[2], cut[3] = byte(ln), byte(ln>>8), byte(ln>>16), byte(ln>>24)
	f, _, err = DecodeFrame(cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeHello(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated tenant decoded without error: %v", err)
	}
}

// TestStatsTenantCompat pins the fifth optional STATS tail — the
// per-tenant rows after the session quad. The compat matrix: every
// earlier-tail shape (legacy, pair, quad, hist, session) decodes with no
// tenant rows; a tenant frame forces all four earlier tails out (zeros)
// and round-trips names, weights, counters and queue-wait snapshots; all
// tails ride together; truncating anywhere inside the tenant tail is
// corrupt.
func TestStatsTenantCompat(t *testing.T) {
	base := engine.Stats{Jobs: 5, Schemes: map[string]uint64{"rep": 5}}
	legacy := AppendStats(nil, 9, &base)

	tenants := []engine.TenantStats{
		{Name: "default", Weight: 1, Jobs: 3, Batches: 2,
			QueueWait: obs.Snapshot{Count: 2, SumNs: 90, MaxNs: 60, Buckets: []uint64{0, 1, 1}}},
		{Name: "acme", Weight: 4, Jobs: 40, Batches: 10, Busy: 6, Recalibrations: 2, SchemeSwitches: 1,
			QueueWait: obs.Snapshot{Count: 10, SumNs: 5000, MaxNs: 900}},
	}
	tailed := base
	tailed.Tenants = tenants
	buf := AppendStats(nil, 9, &tailed)
	// Forced-out earlier tails: zero pair (2) + zero quad (4) + zero-stage
	// histogram (1) + zero session quad (4) = 11 bytes before the rows.
	if len(buf) <= len(legacy)+11 {
		t.Fatalf("tenant frame %d bytes vs legacy %d: tenant tail missing", len(buf), len(legacy))
	}

	decode := func(b []byte) (engine.Stats, error) {
		f, _, err := DecodeFrame(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f.DecodeStats()
	}

	for name, st := range map[string]engine.Stats{
		"legacy":  base,
		"pair":    {Jobs: 5, Recalibrations: 7},
		"quad":    {Jobs: 5, SegsReused: 11},
		"hist":    {Jobs: 5, Stages: []obs.StageSummary{{Name: "execute", Snap: obs.Snapshot{Count: 1, SumNs: 5, MaxNs: 5, Buckets: []uint64{1}}}}},
		"session": {Jobs: 5, SessionOpens: 2, SessionJobs: 9},
	} {
		s, err := decode(AppendStats(nil, 9, &st))
		if err != nil || len(s.Tenants) != 0 {
			t.Fatalf("%s frame decoded %d tenant rows, err %v (want none)", name, len(s.Tenants), err)
		}
	}

	s, err := decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recalibrations != 0 || s.SimplifiedBatches != 0 || len(s.Stages) != 0 || s.SessionOpens != 0 {
		t.Fatalf("forced-out earlier tails decoded as %d/%d/%d/%d", s.Recalibrations, s.SimplifiedBatches, len(s.Stages), s.SessionOpens)
	}
	if len(s.Tenants) != len(tenants) {
		t.Fatalf("tenant round-trip: %d rows, want %d", len(s.Tenants), len(tenants))
	}
	for i, want := range tenants {
		got := s.Tenants[i]
		if got.Name != want.Name || got.Weight != want.Weight ||
			got.Jobs != want.Jobs || got.Batches != want.Batches || got.Busy != want.Busy ||
			got.Recalibrations != want.Recalibrations || got.SchemeSwitches != want.SchemeSwitches {
			t.Fatalf("tenant %d = %+v, want %+v", i, got, want)
		}
		if got.QueueWait.Count != want.QueueWait.Count || got.QueueWait.SumNs != want.QueueWait.SumNs ||
			got.QueueWait.MaxNs != want.QueueWait.MaxNs || len(got.QueueWait.Buckets) != len(want.QueueWait.Buckets) {
			t.Fatalf("tenant %d queue-wait %+v, want %+v", i, got.QueueWait, want.QueueWait)
		}
		for b := range want.QueueWait.Buckets {
			if got.QueueWait.Buckets[b] != want.QueueWait.Buckets[b] {
				t.Fatalf("tenant %d bucket %d = %d, want %d", i, b, got.QueueWait.Buckets[b], want.QueueWait.Buckets[b])
			}
		}
	}

	// Every earlier tail rides along undisturbed when also set.
	full := tailed
	full.Recalibrations, full.SegsReused, full.SessionJobs = 7, 11, 9
	full.Stages = []obs.StageSummary{{Name: "execute", Snap: obs.Snapshot{Count: 1, SumNs: 5, MaxNs: 5, Buckets: []uint64{1}}}}
	if s, err = decode(AppendStats(nil, 9, &full)); err != nil ||
		s.Recalibrations != 7 || s.SegsReused != 11 || len(s.Stages) != 1 ||
		s.SessionJobs != 9 || len(s.Tenants) != 2 {
		t.Fatalf("full-tails frame decoded %d/%d/%d/%d/%d rows, err %v",
			s.Recalibrations, s.SegsReused, len(s.Stages), s.SessionJobs, len(s.Tenants), err)
	}

	// Truncating inside the tenant tail is corrupt. The tail starts right
	// after the 11 forced-out bytes.
	tenantStart := len(legacy) + 11
	for n := tenantStart + 1; n < len(buf); n++ {
		cut := append([]byte(nil), buf[:n]...)
		ln := uint32(len(cut) - 4)
		cut[0], cut[1], cut[2], cut[3] = byte(ln), byte(ln>>8), byte(ln>>16), byte(ln>>24)
		f, _, err := DecodeFrame(cut, 0)
		if err != nil {
			continue // header-level truncation already rejected
		}
		if _, err := f.DecodeStats(); err == nil {
			t.Fatalf("tenant tail truncated to %d bytes decoded without error", n)
		}
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

// TestTruncatedFramesError slices a valid frame at every possible length:
// each prefix must decode to an error, never a panic and never a bogus
// success.
func TestTruncatedFramesError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := randomLoop(rng)
	res := engine.Result{Values: []float64{1, 2, 3}, Scheme: "rep", BatchSize: 2}
	sres := engine.Result{Values: []float64{4, 5}, Scheme: "session", SessionGen: 9}
	frames := [][]byte{
		AppendSubmit(nil, 1, l),
		AppendResult(nil, 2, &res),
		AppendHello(nil, Hello{Version: 1, Procs: 4, MaxInflight: 8}),
		AppendError(nil, 3, "boom"),
		AppendBusy(nil, 4, BusyConn),
		AppendStats(nil, 5, &engine.Stats{Schemes: map[string]uint64{"ll": 1}, BatchOccupancy: []uint64{0, 1}}),
		AppendOpenSession(nil, 6, 2, l),
		AppendDelta(nil, 7, 2, []reduction.RefDelta{{Pos: 0, Ref: 1}, {Pos: 5, Ref: 0}}),
		AppendCloseSession(nil, 8, 2),
		AppendResult(nil, 9, &sres),
		AppendStats(nil, 10, &engine.Stats{SessionOpens: 1, SessionJobs: 2, Schemes: map[string]uint64{}, BatchOccupancy: []uint64{0}}),
		AppendHello(nil, Hello{Version: 1, Procs: 4, MaxInflight: 8, Tenant: "acme"}),
		AppendBusy(nil, 11, BusyTenant),
		AppendStats(nil, 12, &engine.Stats{Schemes: map[string]uint64{}, BatchOccupancy: []uint64{0},
			Tenants: []engine.TenantStats{{Name: "acme", Weight: 4, Jobs: 7,
				QueueWait: obs.Snapshot{Count: 1, SumNs: 9, MaxNs: 9, Buckets: []uint64{1}}}}}),
		AppendSubmitRef(nil, 13, 0x9e3779b97f4a7c15, 300, 0),
		AppendSubmitRef(nil, 14, 0x9e3779b97f4a7c15, 5, 0xdeadbeef),
		AppendResultHandle(nil, 15, &res, 300),
		AppendResultHandle(nil, 16, &sres, 7),
		AppendHello(nil, Hello{Version: 1, Procs: 4, MaxInflight: 8, Flags: HelloFlagPatternHandles}),
	}
	for fi, full := range frames {
		for n := 0; n < len(full); n++ {
			if _, _, err := DecodeFrame(full[:n], 0); err == nil {
				t.Fatalf("frame %d truncated to %d bytes decoded without error", fi, n)
			}
		}
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

// TestResultSessionGenCompat pins the RESULT frame's optional trailing
// session generation on the HELLO-flags rule: one-shot results are
// byte-identical to the pre-session encoding and decode with generation
// 0, session results round-trip, and a truncated tail is corrupt.
func TestResultSessionGenCompat(t *testing.T) {
	base := engine.Result{Values: []float64{1, 2}, Scheme: "session", BatchSize: 1}
	legacy := AppendResult(nil, 3, &base)
	gen := base
	gen.SessionGen = 300 // two uvarint bytes
	tailed := AppendResult(nil, 3, &gen)
	if len(tailed) != len(legacy)+2 {
		t.Fatalf("tailed result %d bytes vs legacy %d: generation not trailing", len(tailed), len(legacy))
	}
	f, _, err := DecodeFrame(legacy, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.DecodeResult(nil)
	if err != nil || r.SessionGen != 0 {
		t.Fatalf("legacy result decoded generation %d, err %v (want 0)", r.SessionGen, err)
	}
	f, _, err = DecodeFrame(tailed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, err = f.DecodeResult(nil); err != nil || r.SessionGen != 300 {
		t.Fatalf("tailed result decoded generation %d, err %v (want 300)", r.SessionGen, err)
	}
	cut := append([]byte(nil), tailed[:len(tailed)-1]...)
	ln := uint32(len(cut) - 4)
	cut[0], cut[1], cut[2], cut[3] = byte(ln), byte(ln>>8), byte(ln>>16), byte(ln>>24)
	f, _, err = DecodeFrame(cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeResult(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated generation decoded without error: %v", err)
	}
}

// TestStatsSessionCompat pins the fourth optional STATS tail — the
// session quad after the stage histograms. The compat matrix: legacy,
// pair-only, quad, and hist frames (all earlier-tail shapes) decode with
// the session counters zero; a session frame forces every earlier tail
// out (zero pair, zero quad, zero-stage histogram) and round-trips; all
// tails ride together; truncating inside the session tail is corrupt.
func TestStatsSessionCompat(t *testing.T) {
	base := engine.Stats{Jobs: 5, Schemes: map[string]uint64{"rep": 5}}
	legacy := AppendStats(nil, 9, &base)

	sess := base
	sess.SessionOpens, sess.SessionJobs = 2, 9
	sess.SessionSegsComputed, sess.SessionSegsReused = 30, 80
	tailed := AppendStats(nil, 9, &sess)
	// Forced-out earlier tails: zero pair (2) + zero quad (4) + zero-stage
	// histogram (1), then four single-byte session counters.
	if len(tailed) != len(legacy)+11 {
		t.Fatalf("session frame %d bytes vs legacy %d, want +11", len(tailed), len(legacy))
	}

	decode := func(buf []byte) (engine.Stats, error) {
		f, _, err := DecodeFrame(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f.DecodeStats()
	}

	for name, st := range map[string]engine.Stats{
		"legacy": base,
		"pair":   {Jobs: 5, Recalibrations: 7},
		"quad":   {Jobs: 5, SegsReused: 11},
		"hist":   {Jobs: 5, Stages: []obs.StageSummary{{Name: "execute", Snap: obs.Snapshot{Count: 1, SumNs: 5, MaxNs: 5, Buckets: []uint64{1}}}}},
	} {
		s, err := decode(AppendStats(nil, 9, &st))
		if err != nil || s.SessionOpens != 0 || s.SessionJobs != 0 ||
			s.SessionSegsComputed != 0 || s.SessionSegsReused != 0 {
			t.Fatalf("%s frame decoded session quad %d/%d/%d/%d, err %v (want zeros)",
				name, s.SessionOpens, s.SessionJobs, s.SessionSegsComputed, s.SessionSegsReused, err)
		}
	}

	s, err := decode(tailed)
	if err != nil {
		t.Fatal(err)
	}
	if s.SessionOpens != 2 || s.SessionJobs != 9 || s.SessionSegsComputed != 30 || s.SessionSegsReused != 80 {
		t.Fatalf("session round-trip = %d/%d/%d/%d", s.SessionOpens, s.SessionJobs, s.SessionSegsComputed, s.SessionSegsReused)
	}
	if s.Recalibrations != 0 || s.SimplifiedBatches != 0 || len(s.Stages) != 0 {
		t.Fatalf("forced-out earlier tails decoded as %d/%d/%d stages", s.Recalibrations, s.SimplifiedBatches, len(s.Stages))
	}

	full := sess
	full.Recalibrations, full.SegsReused = 7, 11
	full.Stages = []obs.StageSummary{{Name: "execute", Snap: obs.Snapshot{Count: 1, SumNs: 5, MaxNs: 5, Buckets: []uint64{1}}}}
	if s, err = decode(AppendStats(nil, 9, &full)); err != nil ||
		s.Recalibrations != 7 || s.SegsReused != 11 || len(s.Stages) != 1 || s.SessionJobs != 9 {
		t.Fatalf("full-tails frame decoded %d/%d/%d/%d, err %v", s.Recalibrations, s.SegsReused, len(s.Stages), s.SessionJobs, err)
	}

	// Truncating inside the session tail (a partial quad) is corrupt. The
	// tail starts right after the forced-out earlier tails.
	sessStart := len(legacy) + 7
	for n := sessStart + 1; n < len(tailed); n++ {
		cut := append([]byte(nil), tailed[:n]...)
		ln := uint32(len(cut) - 4)
		cut[0], cut[1], cut[2], cut[3] = byte(ln), byte(ln>>8), byte(ln>>16), byte(ln>>24)
		f, _, err := DecodeFrame(cut, 0)
		if err != nil {
			continue
		}
		if _, err := f.DecodeStats(); err == nil {
			t.Fatalf("session tail truncated to %d bytes decoded without error", n)
		}
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

// parentFrames are frames captured from the encoders of the commit before
// pattern handles existed (hex of the full length-prefixed frame), over
// goldenLoop / goldenResult below. They are what "byte-identical to
// today" means in the handle compat matrix: a peer that never negotiates
// handles must keep producing exactly these bytes.
var parentFrames = map[string]string{
	"submit":       "2e000000020706676f6c64656e4008000000000000000440000000000000000003040b030301040208080700747d7c773e33",
	"submitTraced": "38000000020706676f6c64656e4008000000000000000440000000000000000003040b030301040208080700747d7c773e3395f8a9fa97b7de9b9e01",
	"result":       "4100000003070103c0c407000000000000f43f04686173680b766572792073706172736504000000000000f83f00000000000002c00000000000000000000000c00b5ae641",
	"resultGen":    "4500000003070103c0c407000000000000f43f0773657373696f6e0b766572792073706172736504000000000000f83f00000000000002c00000000000000000000000c00b5ae6411a",
	"hello":        "050000000100010440",
	"helloGw":      "06000000010001044001",
	"helloTenant":  "0b0000000100010000000461636d65",
	"error":        "07000000040704626f6f6d",
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

func goldenResult() engine.Result {
	return engine.Result{
		Values: []float64{1.5, -2.25, 0, 3e9}, Scheme: "hash",
		Why: "very sparse", CacheHit: true, BatchSize: 3,
		Elapsed: 123456, Imbalance: 1.25,
	}
}

// TestPatternHandleCompat is the handle rows of the compat matrix. The
// frames a legacy dialogue consists of — HELLO, SUBMIT (traced or not),
// RESULT (one-shot and session), ERROR — must encode to the bytes the
// pre-handle encoders produced (parentFrames), which is what keeps a
// legacy client against a new server, and a new client against a server
// that does not advertise HelloFlagPatternHandles, byte-identical to
// before: in both pairings the new frame and the new tail are simply
// never sent (pinned at the dialogue level by the server and client
// package tests). Then the new encodings: the handle is a trailing
// RESULT field behind the session generation, the capability is one more
// HELLO flag bit, and both decode on the HELLO-flags rule.
func TestPatternHandleCompat(t *testing.T) {
	l, res := goldenLoop(), goldenResult()
	sres := res
	sres.Scheme, sres.SessionGen = "session", 26
	now := map[string][]byte{
		"submit":       AppendSubmit(nil, 7, l),
		"submitTraced": AppendSubmitTraced(nil, 7, l, 0x9e3779b97f4a7c15),
		"result":       AppendResultHandle(nil, 7, &res, 0),
		"resultGen":    AppendResultHandle(nil, 7, &sres, 0),
		"hello":        AppendHello(nil, Hello{Version: 1, Procs: 4, MaxInflight: 64}),
		"helloGw":      AppendHello(nil, Hello{Version: 1, Procs: 4, MaxInflight: 64, Flags: HelloFlagGateway}),
		"helloTenant":  AppendHello(nil, Hello{Version: 1, Tenant: "acme"}),
		"error":        AppendError(nil, 7, "boom"),
	}
	for name, want := range parentFrames {
		if got := hex.EncodeToString(now[name]); got != want {
			t.Errorf("%s frame drifted from the pre-handle encoding:\n got %s\nwant %s", name, got, want)
		}
	}
	if !bytes.Equal(AppendResult(nil, 7, &res), now["result"]) {
		t.Error("AppendResult differs from AppendResultHandle with no handle")
	}

	// The capability bit is one more flag: same frame length as the
	// gateway HELLO, and a decoder that knows only bit 0 still reads the
	// field and sees its own bit unchanged.
	both := AppendHello(nil, Hello{Version: 1, Procs: 4, MaxInflight: 64, Flags: HelloFlagGateway | HelloFlagPatternHandles})
	if len(both) != len(now["helloGw"]) {
		t.Fatalf("handle bit changed the HELLO length: %d vs %d", len(both), len(now["helloGw"]))
	}
	f, _, err := DecodeFrame(both, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.DecodeHello()
	if err != nil || h.Flags&HelloFlagGateway == 0 || h.Flags&HelloFlagPatternHandles == 0 {
		t.Fatalf("hello flags %#x, err %v", h.Flags, err)
	}

	// RESULT handle tail: positional after the generation, so a one-shot
	// result grows by a zero generation byte plus the handle, a session
	// result by the handle alone.
	decode := func(b []byte) (engine.Result, uint64, error) {
		t.Helper()
		f, n, err := DecodeFrame(b, 0)
		if err != nil || n != len(b) {
			t.Fatalf("frame: n=%d err=%v", n, err)
		}
		return f.DecodeResultHandle(nil)
	}
	tailed := AppendResultHandle(nil, 7, &res, 300) // two uvarint bytes
	if len(tailed) != len(now["result"])+1+2 {
		t.Fatalf("handle tail: %d bytes vs legacy %d", len(tailed), len(now["result"]))
	}
	r, handle, err := decode(tailed)
	if err != nil || handle != 300 || r.SessionGen != 0 || r.Scheme != "hash" || len(r.Values) != 4 {
		t.Fatalf("tailed result: handle %d gen %d err %v", handle, r.SessionGen, err)
	}
	genTailed := AppendResultHandle(nil, 7, &sres, 300)
	if len(genTailed) != len(now["resultGen"])+2 {
		t.Fatalf("handle after generation: %d bytes vs %d", len(genTailed), len(now["resultGen"]))
	}
	if r, handle, err = decode(genTailed); err != nil || handle != 300 || r.SessionGen != 26 {
		t.Fatalf("gen+handle result: handle %d gen %d err %v", handle, r.SessionGen, err)
	}
	for name, legacy := range map[string][]byte{"result": now["result"], "resultGen": now["resultGen"]} {
		if _, handle, err := decode(legacy); err != nil || handle != 0 {
			t.Fatalf("legacy %s decoded handle %d, err %v (want 0)", name, handle, err)
		}
	}
	// A handle-unaware caller still reads a tailed frame through the old
	// entry point.
	f, _, _ = DecodeFrame(tailed, 0)
	if r, err := f.DecodeResult(nil); err != nil || r.BatchSize != 3 {
		t.Fatalf("DecodeResult on a tailed frame: %+v, %v", r, err)
	}
	// Truncated inside the handle: corrupt, not silently zero.
	cut := append([]byte(nil), tailed[:len(tailed)-1]...)
	n := uint32(len(cut) - 4)
	cut[0], cut[1], cut[2], cut[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	if _, _, err := decode(cut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated handle decoded without error: %v", err)
	}
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
