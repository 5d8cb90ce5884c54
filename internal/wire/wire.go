// Package wire defines the binary protocol between reduction clients and
// the reduxd server: a compact, length-prefixed frame stream carrying
// varint-encoded trace.Loop access patterns one way and reduction results
// the other.
//
// A connection opens with a fixed 5-byte preamble (magic "RDXP" plus a
// version byte); the server answers with a HELLO frame. After that both
// directions are a sequence of frames:
//
//	u32le payloadLen | byte frameType | uvarint jobID | body
//
// Job IDs are client-assigned, which is what allows the server to answer
// out of order: many submissions can be in flight on one connection and
// each RESULT/ERROR/BUSY frame names the submission it resolves. Frames
// with jobID 0 are connection-scoped (HELLO, fatal ERROR).
//
// The hot path is allocation-conscious end to end: encoders append into
// pooled buffers (GetBuffer/Free), a RESULT frame lends its vector to the
// buffer instead of copying it (Buffer.LendResult), a Writer sends the
// buffers queued on a connection in one vectored write — a lent vector
// straight from its own memory — and frees them, the Reader parses
// frames in place from the one buffer it reads the connection into, loop
// decoding can reuse caller scratch (Frame.DecodeSubmitInto) and result
// decoding fills a caller-provided destination array in one bulk pass
// (floats.go) — a RESULT vector is copied in user space only by the
// receiving side of a hop.
// Decoding is defensive: every read is bounds-checked, sizes are capped
// before allocation, and corrupt or truncated input returns an error —
// never a panic (see FuzzDecodeFrame).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ProtoVersion is the protocol revision this package speaks. The preamble
// and HELLO carry it. A peer speaks exactly one version: tiers upgrade
// together (docs/PROTOCOL.md "Versioning").
const ProtoVersion = 2

// Magic opens every connection ("RDXP" — reduction exchange protocol).
var Magic = [4]byte{'R', 'D', 'X', 'P'}

// Defaults for the decode-side resource caps. Both exist so a corrupt or
// hostile frame cannot make a peer allocate unbounded memory, and the
// server, client and gateway pool read with exactly these (none of them
// makes a cap configurable).
const (
	// DefaultMaxFrame caps one frame's payload (64 MiB). It also keeps a
	// submitted loop under 2^26 references (each costs at least a byte),
	// the bound under which trace.Value's exact grid makes every add
	// path return RunSequential's bits; raising it would void that
	// contract silently.
	DefaultMaxFrame = 64 << 20
	// DefaultMaxElems caps a submitted loop's reduction array dimension.
	DefaultMaxElems = 1 << 24
	// maxStringLen caps embedded strings (names, scheme labels, errors).
	maxStringLen = 1 << 16
)

// FrameType discriminates the frame body.
type FrameType byte

const (
	// FrameHello is the server's connection greeting (version, platform
	// procs, per-connection in-flight budget). jobID 0.
	FrameHello FrameType = 1
	// FrameSubmit carries one reduction job: a full trace.Loop.
	FrameSubmit FrameType = 2
	// FrameResult resolves a submission with its reduction array and
	// execution metadata.
	FrameResult FrameType = 3
	// FrameError resolves a submission with a failure (jobID != 0) or
	// reports a fatal connection error before close (jobID 0).
	FrameError FrameType = 4
	// FrameBusy rejects a submission under admission control; the client
	// should back off and resubmit.
	FrameBusy FrameType = 5
	// FrameStatsReq asks the server for an engine statistics snapshot.
	FrameStatsReq FrameType = 6
	// FrameStats answers a FrameStatsReq.
	FrameStats FrameType = 7
	// FrameOpenSession registers a server-resident streaming session: a
	// session id plus a full trace.Loop the server keeps between updates.
	// The server answers with a RESULT carrying the initial reduction and
	// session generation 1.
	FrameOpenSession FrameType = 8
	// FrameDelta streams one batch of reference updates into an open
	// session and reads back the rolling reduction.
	FrameDelta FrameType = 9
	// FrameCloseSession retires a session, freeing its server-resident
	// state. The server answers with an empty RESULT so the client can
	// await teardown.
	FrameCloseSession FrameType = 10
	// FrameSubmitRef is a SUBMIT that names its loop instead of carrying
	// it: the pattern's fingerprint plus the handle the server attached to
	// the RESULT of an earlier full SUBMIT of the same loop. It is
	// answered exactly like the SUBMIT it stands for, or with a
	// job-scoped ERROR opening with PatternGonePrefix when the server no
	// longer holds the pattern.
	FrameSubmitRef FrameType = 11
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameSubmit:
		return "SUBMIT"
	case FrameResult:
		return "RESULT"
	case FrameError:
		return "ERROR"
	case FrameBusy:
		return "BUSY"
	case FrameStatsReq:
		return "STATSREQ"
	case FrameStats:
		return "STATS"
	case FrameOpenSession:
		return "OPEN_SESSION"
	case FrameDelta:
		return "SUBMIT_DELTA"
	case FrameCloseSession:
		return "CLOSE_SESSION"
	case FrameSubmitRef:
		return "SUBMIT_REF"
	default:
		return fmt.Sprintf("FrameType(%d)", byte(t))
	}
}

// BusyCode says which admission-control limit rejected a submission.
type BusyCode uint8

const (
	// BusyConn means the connection's in-flight budget is exhausted.
	BusyConn BusyCode = 1
	// BusyGlobal means the server-wide in-flight budget is exhausted.
	BusyGlobal BusyCode = 2
	// BusyUpstream means a gateway exhausted its bounded retry budget
	// because every healthy backend answered BUSY (or none was healthy):
	// backpressure propagated from the backend tier to the client.
	BusyUpstream BusyCode = 3
	// BusySession means the server's session budget (count or resident
	// bytes) is exhausted and no idle session could be evicted; the client
	// should back off and retry OPEN_SESSION.
	BusySession BusyCode = 4
	// BusyTenant means the submitting tenant's quota rejected the job —
	// its in-flight budget is exhausted or its token bucket is empty —
	// while the connection and the server as a whole still have room. The
	// client should back off and resubmit; other tenants are unaffected.
	BusyTenant BusyCode = 5
)

// String names the rejection code for diagnostics.
func (c BusyCode) String() string {
	switch c {
	case BusyConn:
		return "connection limit"
	case BusyGlobal:
		return "global limit"
	case BusyUpstream:
		return "backend tier busy"
	case BusySession:
		return "session budget exhausted"
	case BusyTenant:
		return "tenant quota"
	default:
		return fmt.Sprintf("BusyCode(%d)", uint8(c))
	}
}

// HelloFlagGateway, a capability bit of Hello.Flags, marks the peer as a
// reduxgw gateway rather than a reduxd daemon: submissions are routed
// onward by pattern fingerprint and STATS answers are aggregates over the
// backend tier. A peer ignores bits it does not know.
const HelloFlagGateway uint64 = 1 << 0

// Hello is the decoded HELLO frame.
type Hello struct {
	// Version is the protocol revision the server speaks.
	Version int
	// Procs is the serving engine's per-job goroutine fan-out (for a
	// gateway: the largest fan-out across its healthy backends).
	Procs int
	// MaxInflight is the per-connection in-flight job budget; submissions
	// beyond it draw BUSY frames.
	MaxInflight int
	// Flags carries capability bits (HelloFlagGateway).
	Flags uint64
	// Tenant is the tenant identity the peer claims; empty means the
	// default tenant. A client sends it in its own HELLO frame right
	// after the preamble to scope the connection's submissions to a
	// tenant; unknown names degrade to the default tenant rather than
	// erroring, so config skew cannot reject traffic.
	Tenant string
}

// SessionGonePrefix opens every ERROR message answering a SUBMIT_DELTA
// or CLOSE_SESSION whose session is unknown, expired or evicted. The
// prefix is part of the protocol: clients match it to map the failure to
// a typed session-gone error (and re-open) rather than treating it as a
// generic job failure. An evicted session always answers this — never a
// stale sum.
const SessionGonePrefix = "session gone: "

// PatternGonePrefix opens every ERROR message answering a SUBMIT_REF
// whose handle the server no longer holds — the pattern was evicted from
// the server's table, displaced by a fingerprint collision, or learned from
// a server that has since restarted. Like SessionGonePrefix it is part of
// the protocol: the submitter still has the loop, so it matches the
// prefix, forgets the handle and resubmits a full SUBMIT. A stale handle
// always answers this — never another pattern's sums.
const PatternGonePrefix = "pattern gone: "

// Sentinel decode errors. Detail errors wrap one of these, so callers can
// classify with errors.Is.
var (
	// ErrCorrupt marks a structurally invalid frame or body.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrFrameTooLarge marks a frame whose declared payload exceeds the
	// reader's cap.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadMagic marks a connection preamble that is not RDXP.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion marks an unsupported protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrType marks a frame decoded as the wrong type.
	ErrType = errors.New("wire: wrong frame type")
)

// Frame is one parsed frame. Body aliases the buffer it was parsed from
// and is only valid until that buffer is reused (the next Reader.Next call
// or Buffer.Free).
type Frame struct {
	// Type discriminates the body's grammar.
	Type FrameType
	// JobID names the submission this frame belongs to (0 for
	// connection-scoped frames).
	JobID uint64
	// Body is the type-specific payload, decoded by the Decode* methods.
	Body []byte
}

// Buffer is a pooled frame buffer. Get one, append frames to B with the
// Append* encoders (or lend it one RESULT with LendResult), send it
// through a Writer or write its bytes, then Free it.
type Buffer struct {
	// B is the accumulated frame bytes. Around a lent vector it holds
	// every byte but the vector's, which belong at offset at.
	B []byte

	vec     []float64       // the lent RESULT vector, nil when B holds every byte
	at      int             // where vec's bytes go in B
	recycle func([]float64) // receives vec when the buffer is freed; nil keeps it
}

// lendVectors says whether a RESULT vector may go to the peer from its
// own memory: its bytes are the wire's only on a little-endian host. It
// is a variable so tests can take the copying path on any host.
var lendVectors = hostLE

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer returns an empty pooled buffer.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Free hands a lent vector to its recycler, then returns the buffer to
// the pool. Oversized buffers are dropped so a single huge frame does
// not pin memory forever.
func (b *Buffer) Free() {
	if b.recycle != nil {
		b.recycle(b.vec)
	}
	b.vec, b.at, b.recycle = nil, 0, nil
	if cap(b.B) <= 4<<20 {
		bufPool.Put(b)
	}
}

// appendIovecs appends the buffer's bytes to iov as the pieces a
// vectored write sends: B, or B[:at], the lent vector's memory and
// B[at:].
func (b *Buffer) appendIovecs(iov [][]byte) [][]byte {
	if len(b.vec) == 0 {
		return append(iov, b.B)
	}
	return append(iov, b.B[:b.at], f64Bytes(b.vec), b.B[b.at:])
}

// appendTo appends the buffer's bytes to dst as one contiguous run: the
// pieces of appendIovecs gathered.
func (b *Buffer) appendTo(dst []byte) []byte {
	if len(b.vec) == 0 {
		return append(dst, b.B...)
	}
	dst = append(dst, b.B[:b.at]...)
	dst = append(dst, f64Bytes(b.vec)...)
	return append(dst, b.B[b.at:]...)
}

// WritePreamble sends the connection opener: magic plus version byte.
func WritePreamble(w io.Writer) error {
	p := [5]byte{Magic[0], Magic[1], Magic[2], Magic[3], ProtoVersion}
	_, err := w.Write(p[:])
	return err
}

// ReadPreamble consumes and validates the connection opener, returning the
// peer's version. A version other than ProtoVersion is ErrVersion (see
// checkVersion); there is nothing to negotiate.
func ReadPreamble(r io.Reader) (int, error) {
	var p [5]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return 0, err
	}
	if p[0] != Magic[0] || p[1] != Magic[1] || p[2] != Magic[2] || p[3] != Magic[3] {
		return 0, ErrBadMagic
	}
	v := int(p[4])
	return v, checkVersion(v)
}

// checkVersion returns nil for ProtoVersion and otherwise ErrVersion
// naming both versions.
func checkVersion(v int) error {
	if v != ProtoVersion {
		return fmt.Errorf("%w: peer speaks %d, this build %d", ErrVersion, v, ProtoVersion)
	}
	return nil
}

// readBufSize is a Reader's initial buffer: room for two of the hot
// path's 24.8 KB RESULT frames, so one socket read usually lands whole
// frames and a straddling tail is the exception.
const readBufSize = 64 << 10

// Reader decodes a frame stream from r — pass it the connection itself.
// It owns the one buffer between the socket and the decoders: reads land
// in it and frames are parsed where they landed, so a payload is not
// copied on its way to a Decode* call.
type Reader struct {
	r        io.Reader
	buf      []byte // buf[rd:wr] is read but not yet returned
	rd, wr   int
	err      error // r's last error, reported once the buffered bytes run out
	maxFrame int
}

// NewReader returns a Reader capping payloads at maxFrame bytes
// (DefaultMaxFrame when 0).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{r: r, maxFrame: maxFrame}
}

// Next reads and parses one frame. The returned frame's Body aliases the
// reader's internal buffer and is invalidated by the next call. io.EOF at
// a frame boundary is returned as io.EOF; a connection cut mid-frame is
// io.ErrUnexpectedEOF.
func (fr *Reader) Next() (Frame, error) {
	if err := fr.fill(4); err != nil {
		return Frame{}, err
	}
	// Compare in uint64 before narrowing: on 32-bit platforms a length
	// >= 2^31 would otherwise convert to a negative int, dodge the cap
	// check, and panic in the reslice below. The cap is checked before
	// fill may grow the buffer for the payload.
	n64 := uint64(binary.LittleEndian.Uint32(fr.buf[fr.rd:]))
	if n64 > uint64(fr.maxFrame) {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n64, fr.maxFrame)
	}
	n := int(n64)
	fr.rd += 4
	if err := fr.fill(n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	payload := fr.buf[fr.rd : fr.rd+n]
	fr.rd += n
	return ParseFrame(payload)
}

// fill reads until need bytes are buffered at rd. When they cannot fit
// behind rd the partial tail moves to the front of the buffer, or of a
// larger one when need exceeds it. A stream that ends with some of the
// bytes buffered is io.ErrUnexpectedEOF; with none, r's own error.
func (fr *Reader) fill(need int) error {
	for fr.wr-fr.rd < need {
		if fr.err != nil {
			if fr.err == io.EOF && fr.wr > fr.rd {
				return io.ErrUnexpectedEOF
			}
			return fr.err
		}
		if fr.rd == fr.wr {
			fr.rd, fr.wr = 0, 0
		}
		if fr.rd+need > len(fr.buf) {
			to := fr.buf
			if need > len(to) {
				to = make([]byte, max(need, 2*len(to), readBufSize))
			}
			fr.wr = copy(to, fr.buf[fr.rd:fr.wr])
			fr.rd, fr.buf = 0, to
		}
		var m int
		m, fr.err = fr.r.Read(fr.buf[fr.wr:])
		fr.wr += m
	}
	return nil
}

// ParseFrame parses one frame payload (everything after the length
// prefix). The frame's Body aliases payload.
func ParseFrame(payload []byte) (Frame, error) {
	c := cur{b: payload}
	t, err := c.u8()
	if err != nil {
		return Frame{}, fmt.Errorf("%w: missing frame type", ErrCorrupt)
	}
	if t < byte(FrameHello) || t > byte(FrameSubmitRef) {
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, t)
	}
	id, err := c.uvarint()
	if err != nil {
		return Frame{}, fmt.Errorf("%w: bad job id", ErrCorrupt)
	}
	return Frame{Type: FrameType(t), JobID: id, Body: c.b}, nil
}

// DecodeFrame parses one length-prefixed frame from b, returning the frame
// and the total bytes consumed. It is the entry point the fuzz harness
// drives: arbitrary input must yield an error, never a panic.
func DecodeFrame(b []byte, maxFrame int) (Frame, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(b) < 4 {
		return Frame{}, 0, fmt.Errorf("%w: short length prefix", ErrCorrupt)
	}
	// uint64 comparison before narrowing, as in Reader.Next: a 2^31+
	// length must hit the cap, not wrap negative on 32-bit platforms.
	n64 := uint64(binary.LittleEndian.Uint32(b))
	if n64 > uint64(maxFrame) {
		return Frame{}, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n64, maxFrame)
	}
	n := int(n64)
	if len(b)-4 < n {
		return Frame{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, len(b)-4, n)
	}
	f, err := ParseFrame(b[4 : 4+n])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, 4 + n, nil
}
