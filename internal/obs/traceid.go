package obs

import (
	"sync/atomic"
	"time"
)

// Trace IDs only need to be unique within a debugging window, not
// cryptographically random: a process-local counter mixed through a
// splitmix64 finalizer gives well-spread nonzero IDs with one atomic add
// per job and no allocation. Zero is reserved to mean "untraced" on the
// wire (a SUBMIT's trace ID field), so NewTraceID never returns it.

var traceCounter atomic.Uint64

var traceBase = uint64(time.Now().UnixNano())

// NewTraceID returns a new nonzero trace ID.
func NewTraceID() uint64 {
	x := traceBase + traceCounter.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}
