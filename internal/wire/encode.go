package wire

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// The encoders append one complete frame — length prefix included — to
// dst and return the extended slice, so a caller can pack several frames
// into one pooled buffer and issue a single write.

// beginFrame appends the length placeholder, type and job id, returning
// the offset of the placeholder for endFrame to patch.
func beginFrame(dst []byte, t FrameType, jobID uint64) ([]byte, int) {
	lenPos := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(t))
	dst = binary.AppendUvarint(dst, jobID)
	return dst, lenPos
}

// endFrame patches the length prefix once the body is in place.
func endFrame(dst []byte, lenPos int) []byte {
	n := uint32(len(dst) - lenPos - 4)
	dst[lenPos] = byte(n)
	dst[lenPos+1] = byte(n >> 8)
	dst[lenPos+2] = byte(n >> 16)
	dst[lenPos+3] = byte(n >> 24)
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendHello encodes a HELLO greeting (the server's, or a tenant-scoped
// client's). The flags field is emitted only when non-zero, exercising
// the optional-trailing-field evolution rule both decoders must follow
// (docs/PROTOCOL.md "Versioning"); the tenant field extends the tail the
// same way, and since optional tails decode positionally, emitting the
// tenant forces the flags out too (a zero is fine — only the frame
// length carries meaning).
func AppendHello(dst []byte, h Hello) []byte {
	scoped := h.Tenant != ""
	if len(h.Tenant) > maxStringLen {
		h.Tenant = h.Tenant[:maxStringLen]
	}
	dst, p := beginFrame(dst, FrameHello, 0)
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	dst = binary.AppendUvarint(dst, uint64(h.Procs))
	dst = binary.AppendUvarint(dst, uint64(h.MaxInflight))
	if h.Flags != 0 || scoped {
		dst = binary.AppendUvarint(dst, h.Flags)
	}
	if scoped {
		dst = appendString(dst, h.Tenant)
	}
	return endFrame(dst, p)
}

// AppendSubmit encodes one reduction job: the loop's metadata, then the
// per-iteration reference counts, then the subscript stream as
// zigzag-varint deltas — irregular but locality-bearing subscript streams
// (the paper's Table 2 loops) compress to one or two bytes per reference.
func AppendSubmit(dst []byte, jobID uint64, l *trace.Loop) []byte {
	return AppendSubmitTraced(dst, jobID, l, 0)
}

// AppendSubmitTraced is AppendSubmit with an end-to-end trace ID carried
// as an optional trailing field (the HELLO-flags evolution rule: emitted
// only when non-zero, decoded as zero by peers that predate it). The
// gateway uses it to forward a job's trace ID to the owning backend so
// one slow job's timeline can be stitched across tiers.
func AppendSubmitTraced(dst []byte, jobID uint64, l *trace.Loop, traceID uint64) []byte {
	dst, p := beginFrame(dst, FrameSubmit, jobID)
	dst = appendLoopBody(dst, l)
	if traceID != 0 {
		dst = binary.AppendUvarint(dst, traceID)
	}
	return endFrame(dst, p)
}

// AppendSubmitRef encodes a submission by reference: the pattern's
// fingerprint as a fixed little-endian u64 (fingerprints are uniformly
// distributed, so a varint would only be longer), the handle the server
// issued for it, and the same optional trailing trace ID as SUBMIT.
func AppendSubmitRef(dst []byte, jobID, fp, handle, traceID uint64) []byte {
	dst, p := beginFrame(dst, FrameSubmitRef, jobID)
	dst = binary.LittleEndian.AppendUint64(dst, fp)
	dst = binary.AppendUvarint(dst, handle)
	if traceID != 0 {
		dst = binary.AppendUvarint(dst, traceID)
	}
	return endFrame(dst, p)
}

// appendLoopBody encodes one trace.Loop — the SUBMIT grammar, shared
// verbatim by OPEN_SESSION so a session registration is a submission
// plus a session id.
func appendLoopBody(dst []byte, l *trace.Loop) []byte {
	dst = appendString(dst, l.Name)
	dst = binary.AppendUvarint(dst, uint64(l.NumElems))
	dst = binary.AppendUvarint(dst, uint64(l.ElemBytes))
	dst = binary.AppendUvarint(dst, uint64(l.Op))
	dst = appendF64(dst, l.WorkPerIter)
	dst = appendF64(dst, l.DataRefsPerIter)
	dst = binary.AppendUvarint(dst, uint64(l.InvocationCount()))
	offsets, refs := l.Flat()
	dst = binary.AppendUvarint(dst, uint64(len(offsets)-1))
	dst = binary.AppendUvarint(dst, uint64(len(refs)))
	for i := 1; i < len(offsets); i++ {
		dst = binary.AppendUvarint(dst, uint64(offsets[i]-offsets[i-1]))
	}
	prev := int64(0)
	for _, r := range refs {
		dst = binary.AppendVarint(dst, int64(r)-prev)
		prev = int64(r)
	}
	return dst
}

// AppendOpenSession encodes a session registration: the client-assigned
// session id, then the loop in the SUBMIT body grammar. The server keeps
// the loop resident; subsequent SUBMIT_DELTA frames update it in place.
func AppendOpenSession(dst []byte, jobID, sessionID uint64, l *trace.Loop) []byte {
	dst, p := beginFrame(dst, FrameOpenSession, jobID)
	dst = binary.AppendUvarint(dst, sessionID)
	dst = appendLoopBody(dst, l)
	return endFrame(dst, p)
}

// AppendDelta encodes one delta batch into an open session: the session
// id, the update count, then per update a position gap (positions are
// strictly increasing, so pos-prev-1 is a uvarint; the first gap is the
// absolute position) and the new reference as a zigzag-varint delta from
// the previous update's reference — the same two compression tricks the
// SUBMIT body uses. An empty batch (count 0) is legal and reads the
// session's current rolling result.
func AppendDelta(dst []byte, jobID, sessionID uint64, deltas []reduction.RefDelta) []byte {
	dst, p := beginFrame(dst, FrameDelta, jobID)
	dst = binary.AppendUvarint(dst, sessionID)
	dst = binary.AppendUvarint(dst, uint64(len(deltas)))
	prevPos := int64(-1)
	prevRef := int64(0)
	for _, d := range deltas {
		dst = binary.AppendUvarint(dst, uint64(int64(d.Pos)-prevPos-1))
		dst = binary.AppendVarint(dst, int64(d.Ref)-prevRef)
		prevPos = int64(d.Pos)
		prevRef = int64(d.Ref)
	}
	return endFrame(dst, p)
}

// AppendCloseSession encodes a session teardown request.
func AppendCloseSession(dst []byte, jobID, sessionID uint64) []byte {
	dst, p := beginFrame(dst, FrameCloseSession, jobID)
	dst = binary.AppendUvarint(dst, sessionID)
	return endFrame(dst, p)
}

// AppendResult encodes a completed job: execution metadata, then the
// reduction array as raw little-endian float64s. Scheme and Why are
// truncated to the decoder's string cap so the encoder can never emit a
// frame its own peer rejects.
func AppendResult(dst []byte, jobID uint64, r *engine.Result) []byte {
	return AppendResultHandle(dst, jobID, r, 0)
}

// AppendResultHandle is AppendResult carrying the pattern handle the
// server interned the submitted loop under, as an optional trailing field
// after the session generation (handles start at 1; zero omits it). A
// server emits it only on connections whose client asked for handles
// (HelloFlagPatternHandles) — a client that predates the tail would
// reject the frame's trailing bytes.
func AppendResultHandle(dst []byte, jobID uint64, r *engine.Result, handle uint64) []byte {
	scheme, why := r.Scheme, r.Why
	if len(scheme) > maxStringLen {
		scheme = scheme[:maxStringLen]
	}
	if len(why) > maxStringLen {
		why = why[:maxStringLen]
	}
	dst, p := beginFrame(dst, FrameResult, jobID)
	var flags byte
	if r.CacheHit {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(r.BatchSize))
	elapsed := r.Elapsed
	if elapsed < 0 {
		elapsed = 0
	}
	dst = binary.AppendUvarint(dst, uint64(elapsed))
	dst = appendF64(dst, r.Imbalance)
	dst = appendString(dst, scheme)
	dst = appendString(dst, why)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	// One grow for the vector and both tails, then the bulk store.
	vec := len(dst)
	dst = slices.Grow(dst, 8*len(r.Values)+2*binary.MaxVarintLen64)[:vec+8*len(r.Values)]
	putF64s(dst[vec:], r.Values)
	// The session generation is an optional trailing field under the
	// HELLO-flags evolution rule: session results carry it (generations
	// start at 1), one-shot results omit it, and peers that predate it
	// decode the shorter frame and see zero.
	// The handle extends the tail the same way; optional tails decode
	// positionally, so emitting it forces the generation out (as zero).
	if r.SessionGen != 0 || handle != 0 {
		dst = binary.AppendUvarint(dst, r.SessionGen)
	}
	if handle != 0 {
		dst = binary.AppendUvarint(dst, handle)
	}
	return endFrame(dst, p)
}

// AppendError encodes a job failure (jobID != 0) or a fatal connection
// error (jobID 0).
func AppendError(dst []byte, jobID uint64, msg string) []byte {
	if len(msg) > maxStringLen {
		msg = msg[:maxStringLen]
	}
	dst, p := beginFrame(dst, FrameError, jobID)
	dst = appendString(dst, msg)
	return endFrame(dst, p)
}

// AppendBusy encodes an admission-control rejection.
func AppendBusy(dst []byte, jobID uint64, code BusyCode) []byte {
	dst, p := beginFrame(dst, FrameBusy, jobID)
	dst = append(dst, byte(code))
	return endFrame(dst, p)
}

// AppendStatsReq encodes a statistics request.
func AppendStatsReq(dst []byte, jobID uint64) []byte {
	dst, p := beginFrame(dst, FrameStatsReq, jobID)
	return endFrame(dst, p)
}

// statsWire and tenantWire are the stats schema sorted into the STATS
// frame's positional runs: statsWire[g] is wire group g of engine.Stats
// (engine.WireBase and the optional tails), tenantWire one tenant row.
var (
	statsWire  = obs.WireGroups(engine.StatsFields)
	tenantWire = obs.WireGroups(engine.TenantFields)[engine.WireTenant]
)

// appendFields encodes one positional run of v's scalars.
func appendFields[T any](dst []byte, rows []*obs.Field[T], v *T) []byte {
	for _, f := range rows {
		dst = binary.AppendUvarint(dst, f.Get(v))
	}
	return dst
}

// nonZero reports whether any scalar of a positional run is non-zero in
// v — the "this optional tail has something to say" test.
func nonZero[T any](rows []*obs.Field[T], v *T) bool {
	for _, f := range rows {
		if f.Get(v) != 0 {
			return true
		}
	}
	return false
}

// appendName encodes a stage or tenant name, truncated to the string
// limit.
func appendName(dst []byte, name string) []byte {
	if len(name) > maxStringLen {
		name = name[:maxStringLen]
	}
	return appendString(dst, name)
}

// appendSnapshot encodes a histogram snapshot: count, sum, max, then
// the trimmed bucket list.
func appendSnapshot(dst []byte, s *obs.Snapshot) []byte {
	dst = binary.AppendUvarint(dst, s.Count)
	dst = binary.AppendUvarint(dst, s.SumNs)
	dst = binary.AppendUvarint(dst, s.MaxNs)
	dst = binary.AppendUvarint(dst, uint64(len(s.Buckets)))
	for _, b := range s.Buckets {
		dst = binary.AppendUvarint(dst, b)
	}
	return dst
}

// AppendStats encodes an engine statistics snapshot: the base run of
// the stats schema, the occupancy histogram, the scheme mix, then the
// optional trailing tails.
func AppendStats(dst []byte, jobID uint64, s *engine.Stats) []byte {
	dst, p := beginFrame(dst, FrameStats, jobID)
	dst = appendFields(dst, statsWire[engine.WireBase], s)
	dst = binary.AppendUvarint(dst, uint64(len(s.BatchOccupancy)))
	for _, v := range s.BatchOccupancy {
		dst = binary.AppendUvarint(dst, v)
	}
	// The scheme mix travels in name order, so one snapshot has one
	// encoding; decoders accept any order.
	dst = binary.AppendUvarint(dst, uint64(len(s.Schemes)))
	for _, name := range slices.Sorted(maps.Keys(s.Schemes)) {
		dst = appendString(dst, name)
		dst = binary.AppendUvarint(dst, s.Schemes[name])
	}
	// The tails follow the same evolution rule as the HELLO flags field:
	// each is emitted only when it has something to say and decodes as
	// zero at peers that predate it. They decode positionally, so a tail
	// forces every earlier one out too (zeros are fine — only the frame
	// length carries meaning): recalibration pair, simplification quad,
	// stage histograms, session quad, tenant rows. Only multi-tenant
	// engines populate Tenants and only an engine that has served has
	// stages, so an idle single-tenant engine emits the shortest frame.
	tenantTail := len(s.Tenants) != 0
	sessTail := tenantTail || nonZero(statsWire[engine.WireSession], s)
	histTail := sessTail || len(s.Stages) != 0
	simpTail := histTail || nonZero(statsWire[engine.WireSimplify], s)
	if simpTail || nonZero(statsWire[engine.WireRecal], s) {
		dst = appendFields(dst, statsWire[engine.WireRecal], s)
	}
	if simpTail {
		dst = appendFields(dst, statsWire[engine.WireSimplify], s)
	}
	if histTail {
		dst = binary.AppendUvarint(dst, uint64(len(s.Stages)))
		for i := range s.Stages {
			dst = appendName(dst, s.Stages[i].Name)
			dst = appendSnapshot(dst, &s.Stages[i].Snap)
		}
	}
	if sessTail {
		dst = appendFields(dst, statsWire[engine.WireSession], s)
	}
	if tenantTail {
		dst = binary.AppendUvarint(dst, uint64(len(s.Tenants)))
		for i := range s.Tenants {
			t := &s.Tenants[i]
			dst = appendName(dst, t.Name)
			dst = appendFields(dst, tenantWire, t)
			dst = appendSnapshot(dst, &t.QueueWait)
		}
	}
	return endFrame(dst, p)
}

// elapsedFromWire converts the uvarint nanosecond field back to a
// duration, saturating rather than going negative on overflow.
func elapsedFromWire(ns uint64) time.Duration {
	if ns > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns)
}
