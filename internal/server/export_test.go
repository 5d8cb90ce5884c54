package server

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// SessionBytes reports the session store's byte account: the resident
// sessions' footprints.
func (s *Server) SessionBytes() int64 {
	st := s.sessions
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes
}

// ConnInflight reports the in-flight job count of every live connection.
func (s *Server) ConnInflight() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n []int64
	for c := range s.conns {
		n = append(n, c.inflight.Load())
	}
	return n
}

// ConnInflightProbes returns, for every live connection, a probe of its
// in-flight count that still reads after the connection is gone.
func (s *Server) ConnInflightProbes() []func() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var probes []func() int64
	for c := range s.conns {
		probes = append(probes, c.inflight.Load)
	}
	return probes
}

// VectorLedger counts the destination vectors a server's engine path
// lends to RESULT frames and the ones its write loops hand back.
type VectorLedger struct{ Lent, Recycled atomic.Int64 }

// NewLedgered is New whose every engine-path job counts as one lent
// vector — the engine answers each into its destination array, which the
// job's RESULT frame lends — and whose recycler counts the vectors freed
// frames return.
func NewLedgered(eng *engine.Engine, cfg Config) (*Server, *VectorLedger) {
	lg := new(VectorLedger)
	s := NewWithDispatcher(ledgerDispatcher{engineDispatcher{eng}, lg}, cfg)
	put := s.recycle
	s.recycle = func(v []float64) {
		lg.Recycled.Add(1)
		put(v)
	}
	return s, lg
}

// ledgerDispatcher is the daemon's dispatcher, counting dispatched jobs.
type ledgerDispatcher struct {
	engineDispatcher
	lg *VectorLedger
}

func (d ledgerDispatcher) Dispatch(l *trace.Loop, fp uint64, dst []float64, tl *obs.Timeline, tenant string) (Waiter, error) {
	w, err := d.engineDispatcher.Dispatch(l, fp, dst, tl, tenant)
	if err == nil {
		d.lg.Lent.Add(1)
	}
	return w, err
}
