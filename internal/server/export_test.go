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
