package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/reduction"
	"repro/internal/trace"
)

// cur is a bounds-checked read cursor over a frame body. Every accessor
// returns an error instead of panicking on truncated input.
type cur struct{ b []byte }

func (c *cur) remaining() int { return len(c.b) }

func (c *cur) u8() (byte, error) {
	if len(c.b) < 1 {
		return 0, fmt.Errorf("%w: truncated byte", ErrCorrupt)
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v, nil
}

func (c *cur) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cur) varint() (int64, error) {
	v, n := binary.Varint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cur) f64() (float64, error) {
	if len(c.b) < 8 {
		return 0, fmt.Errorf("%w: truncated float64", ErrCorrupt)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v, nil
}

// intField reads a uvarint that must fit a non-negative int bounded by
// max (what counts and dimensions use, keeping 32-bit overflow and
// hostile sizes out of the callers).
func (c *cur) intField(name string, max int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, fmt.Errorf("%w: %s", ErrCorrupt, name)
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("%w: %s %d exceeds limit %d", ErrCorrupt, name, v, max)
	}
	return int(v), nil
}

func (c *cur) str(limit int) (string, error) {
	n, err := c.intField("string length", limit)
	if err != nil {
		return "", err
	}
	if len(c.b) < n {
		return "", fmt.Errorf("%w: truncated string (%d of %d bytes)", ErrCorrupt, len(c.b), n)
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s, nil
}

func (f Frame) expect(t FrameType) error {
	if f.Type != t {
		return fmt.Errorf("%w: got %v, want %v", ErrType, f.Type, t)
	}
	return nil
}

// DecodeHello decodes a HELLO frame.
func (f Frame) DecodeHello() (Hello, error) {
	if err := f.expect(FrameHello); err != nil {
		return Hello{}, err
	}
	c := cur{b: f.Body}
	var h Hello
	var err error
	if h.Version, err = c.intField("version", math.MaxUint8); err != nil {
		return Hello{}, err
	}
	if h.Procs, err = c.intField("procs", 1<<20); err != nil {
		return Hello{}, err
	}
	if h.MaxInflight, err = c.intField("max inflight", math.MaxInt32); err != nil {
		return Hello{}, err
	}
	// Flags is an optional trailing field: a peer that predates it sends
	// the shorter frame, which decodes with Flags == 0.
	if c.remaining() > 0 {
		if h.Flags, err = c.uvarint(); err != nil {
			return Hello{}, fmt.Errorf("%w: hello flags", ErrCorrupt)
		}
	}
	// Tenant extends the tail after Flags, same evolution rule: absent
	// from peers that predate it (or that claim no tenant), which decodes
	// to the empty string — the default tenant.
	if c.remaining() > 0 {
		if h.Tenant, err = c.str(maxStringLen); err != nil {
			return Hello{}, err
		}
	}
	return h, nil
}

// DecodeSubmit decodes a SUBMIT frame into a freshly allocated loop,
// rejecting loops wider than maxElems elements (DefaultMaxElems when 0).
func (f Frame) DecodeSubmit(maxElems int) (*trace.Loop, error) {
	l := &trace.Loop{}
	if _, _, _, err := f.DecodeSubmitInto(l, nil, nil, maxElems); err != nil {
		return nil, err
	}
	return l, nil
}

// DecodeSubmitInto decodes a SUBMIT frame into l, building the iteration
// structure in the provided scratch slices (grown as needed and returned,
// so a connection loop can reuse them frame after frame; l takes
// ownership until the next decode). maxElems caps the loop's reduction
// array dimension; 0 means DefaultMaxElems. The third return is the
// frame's optional trailing trace ID (0 when the submitter sent none).
func (f Frame) DecodeSubmitInto(l *trace.Loop, offsets, refs []int32, maxElems int) ([]int32, []int32, uint64, error) {
	if maxElems <= 0 {
		maxElems = DefaultMaxElems
	}
	if err := f.expect(FrameSubmit); err != nil {
		return offsets, refs, 0, err
	}
	c := cur{b: f.Body}
	offsets, refs, err := decodeLoopBody(&c, l, offsets, refs, maxElems)
	if err != nil {
		return offsets, refs, 0, err
	}
	// Optional trailing trace ID (HELLO-flags evolution rule): absent from
	// peers that predate it, decoded as 0.
	var traceID uint64
	if c.remaining() > 0 {
		if traceID, err = c.uvarint(); err != nil {
			return offsets, refs, 0, fmt.Errorf("%w: trace id", ErrCorrupt)
		}
	}
	if c.remaining() != 0 {
		return offsets, refs, 0, fmt.Errorf("%w: %d trailing bytes after submit body", ErrCorrupt, c.remaining())
	}
	return offsets, refs, traceID, nil
}

// DecodeSubmitRef decodes a SUBMIT_REF frame: the pattern fingerprint,
// the (non-zero) handle, and the optional trailing trace ID.
func (f Frame) DecodeSubmitRef() (fp, handle, traceID uint64, err error) {
	if err := f.expect(FrameSubmitRef); err != nil {
		return 0, 0, 0, err
	}
	c := cur{b: f.Body}
	if len(c.b) < 8 {
		return 0, 0, 0, fmt.Errorf("%w: truncated fingerprint", ErrCorrupt)
	}
	fp = binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	if handle, err = c.uvarint(); err != nil || handle == 0 {
		return 0, 0, 0, fmt.Errorf("%w: pattern handle", ErrCorrupt)
	}
	if c.remaining() > 0 {
		if traceID, err = c.uvarint(); err != nil {
			return 0, 0, 0, fmt.Errorf("%w: trace id", ErrCorrupt)
		}
	}
	if c.remaining() != 0 {
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes after submit-ref body", ErrCorrupt, c.remaining())
	}
	return fp, handle, traceID, nil
}

// decodeLoopBody decodes the loop grammar shared by SUBMIT and
// OPEN_SESSION bodies into l, leaving the cursor on whatever trailing
// fields follow. It carries all of DecodeSubmitInto's defenses: counts
// bounded by the remaining payload, iteration lengths reconciled against
// NumRefs, every reference bounds-checked.
func decodeLoopBody(c *cur, l *trace.Loop, offsets, refs []int32, maxElems int) ([]int32, []int32, error) {
	name, err := c.str(maxStringLen)
	if err != nil {
		return offsets, refs, err
	}
	numElems, err := c.intField("NumElems", maxElems)
	if err != nil {
		return offsets, refs, err
	}
	if numElems == 0 {
		return offsets, refs, fmt.Errorf("%w: zero NumElems", ErrCorrupt)
	}
	elemBytes, err := c.intField("ElemBytes", 1<<16)
	if err != nil {
		return offsets, refs, err
	}
	op, err := c.intField("Op", int(trace.OpMin))
	if err != nil {
		return offsets, refs, err
	}
	work, err := c.f64()
	if err != nil {
		return offsets, refs, err
	}
	dataRefs, err := c.f64()
	if err != nil {
		return offsets, refs, err
	}
	invocations, err := c.intField("Invocations", math.MaxInt32)
	if err != nil {
		return offsets, refs, err
	}
	// Each iteration length and each reference delta occupies at least one
	// encoded byte, so the remaining payload bounds both counts — a frame
	// cannot make the decoder allocate more than it shipped.
	numIters, err := c.intField("NumIters", c.remaining())
	if err != nil {
		return offsets, refs, err
	}
	numRefs, err := c.intField("NumRefs", c.remaining())
	if err != nil {
		return offsets, refs, err
	}

	if cap(offsets) < numIters+1 {
		offsets = make([]int32, 0, numIters+1)
	}
	offsets = offsets[:0]
	offsets = append(offsets, 0)
	total := 0
	for i := 0; i < numIters; i++ {
		n, err := c.intField("iteration length", numRefs)
		if err != nil {
			return offsets, refs, err
		}
		total += n
		if total > numRefs {
			return offsets, refs, fmt.Errorf("%w: iteration lengths exceed NumRefs %d", ErrCorrupt, numRefs)
		}
		offsets = append(offsets, int32(total))
	}
	if total != numRefs {
		return offsets, refs, fmt.Errorf("%w: iteration lengths sum to %d, want NumRefs %d", ErrCorrupt, total, numRefs)
	}

	if cap(refs) < numRefs {
		refs = make([]int32, 0, numRefs)
	}
	refs = refs[:0]
	prev := int64(0)
	for i := 0; i < numRefs; i++ {
		d, err := c.varint()
		if err != nil {
			return offsets, refs, err
		}
		prev += d
		if prev < 0 || prev >= int64(numElems) {
			return offsets, refs, fmt.Errorf("%w: ref %d out of range [0,%d)", ErrCorrupt, prev, numElems)
		}
		refs = append(refs, int32(prev))
	}

	l.Name = name
	l.NumElems = numElems
	l.ElemBytes = elemBytes
	l.Op = trace.Op(op)
	l.WorkPerIter = work
	l.DataRefsPerIter = dataRefs
	l.Invocations = invocations
	// The loops above already established every Validate invariant
	// (offsets start at 0, grow monotonically to numRefs; refs bounded by
	// numElems), so install without a second O(refs) walk.
	l.SetFlatUnchecked(offsets, refs)
	return offsets, refs, nil
}

// DecodeOpenSessionInto decodes an OPEN_SESSION frame: the
// client-assigned session id, then the loop in the SUBMIT grammar
// (decoded into l with the same scratch-reuse contract as
// DecodeSubmitInto). The caller must clone l before keeping it — the
// session mutates its loop, so it can never share an interned copy.
func (f Frame) DecodeOpenSessionInto(l *trace.Loop, offsets, refs []int32, maxElems int) (uint64, []int32, []int32, error) {
	if maxElems <= 0 {
		maxElems = DefaultMaxElems
	}
	if err := f.expect(FrameOpenSession); err != nil {
		return 0, offsets, refs, err
	}
	c := cur{b: f.Body}
	sid, err := c.uvarint()
	if err != nil {
		return 0, offsets, refs, fmt.Errorf("%w: session id", ErrCorrupt)
	}
	offsets, refs, err = decodeLoopBody(&c, l, offsets, refs, maxElems)
	if err != nil {
		return 0, offsets, refs, err
	}
	if c.remaining() != 0 {
		return 0, offsets, refs, fmt.Errorf("%w: %d trailing bytes after open-session body", ErrCorrupt, c.remaining())
	}
	return sid, offsets, refs, nil
}

// DecodeDelta decodes a SUBMIT_DELTA frame into the provided scratch
// slice (grown as needed and returned). Positions decode strictly
// increasing by construction of the gap encoding; references are checked
// to fit the wire's int32 range here and validated against the session
// loop's bounds where the delta is applied. The update count is bounded
// by the remaining payload (every update costs at least two bytes).
func (f Frame) DecodeDelta(deltas []reduction.RefDelta) (uint64, []reduction.RefDelta, error) {
	if err := f.expect(FrameDelta); err != nil {
		return 0, deltas, err
	}
	c := cur{b: f.Body}
	sid, err := c.uvarint()
	if err != nil {
		return 0, deltas, fmt.Errorf("%w: session id", ErrCorrupt)
	}
	count, err := c.intField("delta count", c.remaining()/2)
	if err != nil {
		return 0, deltas, err
	}
	if cap(deltas) < count {
		deltas = make([]reduction.RefDelta, 0, count)
	}
	deltas = deltas[:0]
	pos := int64(-1)
	ref := int64(0)
	for i := 0; i < count; i++ {
		gap, err := c.uvarint()
		if err != nil {
			return 0, deltas, fmt.Errorf("%w: delta position", ErrCorrupt)
		}
		if gap > math.MaxInt32 {
			return 0, deltas, fmt.Errorf("%w: delta position gap overflow", ErrCorrupt)
		}
		pos += int64(gap) + 1
		if pos > math.MaxInt32 {
			return 0, deltas, fmt.Errorf("%w: delta position overflow", ErrCorrupt)
		}
		d, err := c.varint()
		if err != nil {
			return 0, deltas, fmt.Errorf("%w: delta ref", ErrCorrupt)
		}
		ref += d
		if ref < 0 || ref > math.MaxInt32 {
			return 0, deltas, fmt.Errorf("%w: delta ref %d out of range", ErrCorrupt, ref)
		}
		deltas = append(deltas, reduction.RefDelta{Pos: int32(pos), Ref: int32(ref)})
	}
	if c.remaining() != 0 {
		return 0, deltas, fmt.Errorf("%w: %d trailing bytes after delta body", ErrCorrupt, c.remaining())
	}
	return sid, deltas, nil
}

// DecodeCloseSession decodes a CLOSE_SESSION frame's session id.
func (f Frame) DecodeCloseSession() (uint64, error) {
	if err := f.expect(FrameCloseSession); err != nil {
		return 0, err
	}
	c := cur{b: f.Body}
	sid, err := c.uvarint()
	if err != nil {
		return 0, fmt.Errorf("%w: session id", ErrCorrupt)
	}
	if c.remaining() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after close-session body", ErrCorrupt, c.remaining())
	}
	return sid, nil
}

// DecodeResult decodes a RESULT frame. The reduction array is written
// into dst when it has the capacity (mirroring engine.SubmitInto), else a
// fresh array is allocated.
func (f Frame) DecodeResult(dst []float64) (engine.Result, error) {
	r, _, err := f.DecodeResultHandle(dst)
	return r, err
}

// DecodeResultHandle is DecodeResult also returning the frame's optional
// trailing pattern handle (0 when the server attached none).
func (f Frame) DecodeResultHandle(dst []float64) (engine.Result, uint64, error) {
	if err := f.expect(FrameResult); err != nil {
		return engine.Result{}, 0, err
	}
	c := cur{b: f.Body}
	var r engine.Result
	flags, err := c.u8()
	if err != nil {
		return engine.Result{}, 0, err
	}
	r.CacheHit = flags&1 != 0
	if r.BatchSize, err = c.intField("batch size", math.MaxInt32); err != nil {
		return engine.Result{}, 0, err
	}
	ns, err := c.uvarint()
	if err != nil {
		return engine.Result{}, 0, fmt.Errorf("%w: elapsed", ErrCorrupt)
	}
	r.Elapsed = elapsedFromWire(ns)
	if r.Imbalance, err = c.f64(); err != nil {
		return engine.Result{}, 0, err
	}
	if r.Scheme, err = c.str(maxStringLen); err != nil {
		return engine.Result{}, 0, err
	}
	if r.Why, err = c.str(maxStringLen); err != nil {
		return engine.Result{}, 0, err
	}
	n, err := c.intField("value count", c.remaining()/8)
	if err != nil {
		return engine.Result{}, 0, err
	}
	// The bound above counted the bytes of the count itself; this is the
	// one length check for the whole vector.
	if c.remaining() < 8*n {
		return engine.Result{}, 0, fmt.Errorf("%w: truncated values (%d of %d bytes)", ErrCorrupt, c.remaining(), 8*n)
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	getF64s(dst, c.b[:8*n])
	c.b = c.b[8*n:]
	// Optional trailing session generation (HELLO-flags evolution rule):
	// session results carry it, one-shot results and older peers omit it.
	if c.remaining() > 0 {
		if r.SessionGen, err = c.uvarint(); err != nil {
			return engine.Result{}, 0, fmt.Errorf("%w: session generation", ErrCorrupt)
		}
	}
	// Optional pattern handle after the generation, same rule.
	var handle uint64
	if c.remaining() > 0 {
		if handle, err = c.uvarint(); err != nil {
			return engine.Result{}, 0, fmt.Errorf("%w: pattern handle", ErrCorrupt)
		}
	}
	if c.remaining() != 0 {
		return engine.Result{}, 0, fmt.Errorf("%w: %d trailing bytes after result body", ErrCorrupt, c.remaining())
	}
	r.Values = dst
	return r, handle, nil
}

// DecodeError decodes an ERROR frame's message.
func (f Frame) DecodeError() (string, error) {
	if err := f.expect(FrameError); err != nil {
		return "", err
	}
	c := cur{b: f.Body}
	return c.str(maxStringLen)
}

// DecodeBusy decodes a BUSY frame's rejection code.
func (f Frame) DecodeBusy() (BusyCode, error) {
	if err := f.expect(FrameBusy); err != nil {
		return 0, err
	}
	c := cur{b: f.Body}
	code, err := c.u8()
	if err != nil {
		return 0, err
	}
	if code < byte(BusyConn) || code > byte(BusyTenant) {
		return 0, fmt.Errorf("%w: unknown busy code %d", ErrCorrupt, code)
	}
	return BusyCode(code), nil
}

// readFields decodes one positional run of scalars into v. Int-typed
// rows are bounded like every other count on the wire.
func readFields[T any](c *cur, rows []*obs.Field[T], v *T) error {
	for _, f := range rows {
		x, err := c.uvarint()
		if err != nil {
			return fmt.Errorf("%w: %s", ErrCorrupt, f.Series)
		}
		if f.Int != nil && x > math.MaxInt32 {
			return fmt.Errorf("%w: %s %d exceeds limit %d", ErrCorrupt, f.Series, x, math.MaxInt32)
		}
		f.Set(v, x)
	}
	return nil
}

// snapshot decodes a histogram snapshot: count, sum, max, bucket list.
func (c *cur) snapshot() (s obs.Snapshot, err error) {
	for _, p := range []*uint64{&s.Count, &s.SumNs, &s.MaxNs} {
		if *p, err = c.uvarint(); err != nil {
			return s, fmt.Errorf("%w: histogram summary", ErrCorrupt)
		}
	}
	nbuckets, err := c.intField("histogram bucket count", c.remaining())
	if err != nil {
		return s, err
	}
	if nbuckets > 0 {
		s.Buckets = make([]uint64, nbuckets)
		for b := range s.Buckets {
			if s.Buckets[b], err = c.uvarint(); err != nil {
				return s, fmt.Errorf("%w: histogram bucket", ErrCorrupt)
			}
		}
	}
	return s, nil
}

// DecodeStats decodes a STATS frame into an engine statistics snapshot.
func (f Frame) DecodeStats() (engine.Stats, error) {
	if err := f.expect(FrameStats); err != nil {
		return engine.Stats{}, err
	}
	c := cur{b: f.Body}
	var s engine.Stats
	if err := readFields(&c, statsWire[engine.WireBase], &s); err != nil {
		return engine.Stats{}, err
	}
	occ, err := c.intField("occupancy buckets", c.remaining())
	if err != nil {
		return engine.Stats{}, err
	}
	s.BatchOccupancy = make([]uint64, occ)
	for i := range s.BatchOccupancy {
		if s.BatchOccupancy[i], err = c.uvarint(); err != nil {
			return engine.Stats{}, fmt.Errorf("%w: occupancy bucket", ErrCorrupt)
		}
	}
	schemes, err := c.intField("scheme count", c.remaining())
	if err != nil {
		return engine.Stats{}, err
	}
	s.Schemes = make(map[string]uint64, schemes)
	for i := 0; i < schemes; i++ {
		name, err := c.str(maxStringLen)
		if err != nil {
			return engine.Stats{}, err
		}
		if s.Schemes[name], err = c.uvarint(); err != nil {
			return engine.Stats{}, fmt.Errorf("%w: scheme count", ErrCorrupt)
		}
	}
	// The optional tails, in positional order. A peer that predates one
	// sends the shorter frame, which decodes with that tail's fields
	// zero; a tail that is present must be complete.
	for _, g := range []uint8{engine.WireRecal, engine.WireSimplify} {
		if c.remaining() > 0 {
			if err := readFields(&c, statsWire[g], &s); err != nil {
				return engine.Stats{}, err
			}
		}
	}
	// Stage-latency histograms: stage count, then per stage a name and
	// histogram snapshot.
	if c.remaining() > 0 {
		nstages, err := c.intField("stage count", c.remaining())
		if err != nil {
			return engine.Stats{}, err
		}
		s.Stages = make([]obs.StageSummary, nstages)
		for i := range s.Stages {
			if s.Stages[i].Name, err = c.str(maxStringLen); err != nil {
				return engine.Stats{}, err
			}
			if s.Stages[i].Snap, err = c.snapshot(); err != nil {
				return engine.Stats{}, err
			}
		}
	}
	if c.remaining() > 0 {
		if err := readFields(&c, statsWire[engine.WireSession], &s); err != nil {
			return engine.Stats{}, err
		}
	}
	// Per-tenant rows: a tenant count, then per tenant a name, the
	// tenant schema's positional run and a queue-wait histogram snapshot.
	if c.remaining() > 0 {
		ntenants, err := c.intField("tenant count", c.remaining())
		if err != nil {
			return engine.Stats{}, err
		}
		s.Tenants = make([]engine.TenantStats, ntenants)
		for i := range s.Tenants {
			t := &s.Tenants[i]
			if t.Name, err = c.str(maxStringLen); err != nil {
				return engine.Stats{}, err
			}
			if err := readFields(&c, tenantWire, t); err != nil {
				return engine.Stats{}, err
			}
			if t.QueueWait, err = c.snapshot(); err != nil {
				return engine.Stats{}, err
			}
		}
	}
	if c.remaining() != 0 {
		return engine.Stats{}, fmt.Errorf("%w: %d trailing bytes after stats body", ErrCorrupt, c.remaining())
	}
	return s, nil
}
