package server

// SessionBytes reports the session store's byte account: the resident
// sessions' footprints and the estimates of opens between admission and
// commit.
func (s *Server) SessionBytes() (resident, reserved int64) {
	st := s.sessions
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes, st.reservedBytes
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
