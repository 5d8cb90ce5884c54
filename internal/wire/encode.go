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

// appendString encodes s truncated to the decoder's string cap, so an
// encoder never emits a string its own peer rejects.
func appendString(dst []byte, s string) []byte {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendHello encodes a HELLO greeting: the server's, or the one a
// client sends to claim a tenant.
func AppendHello(dst []byte, h Hello) []byte {
	dst, p := beginFrame(dst, FrameHello, 0)
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	dst = binary.AppendUvarint(dst, uint64(h.Procs))
	dst = binary.AppendUvarint(dst, uint64(h.MaxInflight))
	dst = binary.AppendUvarint(dst, h.Flags)
	dst = appendString(dst, h.Tenant)
	return endFrame(dst, p)
}

// AppendSubmit encodes one untraced reduction job: the loop's metadata,
// then the per-iteration reference counts, then the subscript stream as
// zigzag-varint deltas — irregular but locality-bearing subscript streams
// (the paper's Table 2 loops) compress to one or two bytes per reference.
func AppendSubmit(dst []byte, jobID uint64, l *trace.Loop) []byte {
	return AppendSubmitTraced(dst, jobID, l, 0)
}

// AppendSubmitTraced is AppendSubmit ending in an end-to-end trace ID
// (0: untraced, the server assigns its own). The gateway forwards a
// job's ID to the owning backend so one slow job's timeline can be
// stitched across tiers.
func AppendSubmitTraced(dst []byte, jobID uint64, l *trace.Loop, traceID uint64) []byte {
	dst, p := beginFrame(dst, FrameSubmit, jobID)
	dst = appendLoopBody(dst, l)
	dst = binary.AppendUvarint(dst, traceID)
	return endFrame(dst, p)
}

// AppendSubmitRef encodes a submission by reference: the pattern's
// fingerprint as a fixed little-endian u64 (fingerprints are uniformly
// distributed, so a varint would only be longer), the handle the server
// issued for it, and the trace ID as in SUBMIT.
func AppendSubmitRef(dst []byte, jobID, fp, handle, traceID uint64) []byte {
	dst, p := beginFrame(dst, FrameSubmitRef, jobID)
	dst = binary.LittleEndian.AppendUint64(dst, fp)
	dst = binary.AppendUvarint(dst, handle)
	dst = binary.AppendUvarint(dst, traceID)
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

// AppendResult encodes a completed job that names no pattern handle.
func AppendResult(dst []byte, jobID uint64, r *engine.Result) []byte {
	return AppendResultHandle(dst, jobID, r, 0)
}

// AppendResultHandle encodes a completed job: execution metadata, the
// reduction array as raw little-endian float64s, the session generation
// (0 for a one-shot job) and the pattern handle the server interned the
// submitted loop under (0 when the RESULT names none: a session answer,
// or the answer to a SUBMIT_REF, whose sender holds the handle already).
func AppendResultHandle(dst []byte, jobID uint64, r *engine.Result, handle uint64) []byte {
	dst, p := beginFrame(dst, FrameResult, jobID)
	var flags byte
	if r.CacheHit {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(max(r.Elapsed, 0)))
	dst = appendString(dst, r.Scheme)
	dst = appendString(dst, r.Why)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	// One grow for the vector and the two fields after it, then the bulk
	// store.
	vec := len(dst)
	dst = slices.Grow(dst, 8*len(r.Values)+2*binary.MaxVarintLen64)[:vec+8*len(r.Values)]
	putF64s(dst[vec:], r.Values)
	dst = binary.AppendUvarint(dst, r.SessionGen)
	dst = binary.AppendUvarint(dst, handle)
	return endFrame(dst, p)
}

// AppendError encodes a job failure (jobID != 0) or a fatal connection
// error (jobID 0).
func AppendError(dst []byte, jobID uint64, msg string) []byte {
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

// appendKeyed encodes a keyed run of v's scalars: the row count, then
// every row of the schema as its Key and value.
func appendKeyed[T any](dst []byte, rows []obs.Field[T], v *T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for i := range rows {
		dst = appendString(dst, rows[i].Key)
		dst = binary.AppendUvarint(dst, rows[i].Get(v))
	}
	return dst
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

// AppendStats encodes an engine statistics snapshot: every
// engine.StatsFields row keyed by its Key, the scheme mix, the stage
// histograms by name, then the tenant rows by name, each a keyed run of
// engine.TenantFields plus its queue-wait histogram. The codec names no
// counter, so a row added to either table travels with no edit here.
func AppendStats(dst []byte, jobID uint64, s *engine.Stats) []byte {
	dst, p := beginFrame(dst, FrameStats, jobID)
	dst = appendKeyed(dst, engine.StatsFields, s)
	// The scheme mix travels in name order, so one snapshot has one
	// encoding; decoders accept any order.
	dst = binary.AppendUvarint(dst, uint64(len(s.Schemes)))
	for _, name := range slices.Sorted(maps.Keys(s.Schemes)) {
		dst = appendString(dst, name)
		dst = binary.AppendUvarint(dst, s.Schemes[name])
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Stages)))
	for i := range s.Stages {
		dst = appendString(dst, s.Stages[i].Name)
		dst = appendSnapshot(dst, &s.Stages[i].Snap)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Tenants)))
	for i := range s.Tenants {
		t := &s.Tenants[i]
		dst = appendString(dst, t.Name)
		dst = appendKeyed(dst, engine.TenantFields, t)
		dst = appendSnapshot(dst, &t.QueueWait)
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
