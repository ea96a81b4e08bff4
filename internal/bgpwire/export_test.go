package bgpwire

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// Err returns the error that terminated the session, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}
