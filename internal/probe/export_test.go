package probe

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// Truth returns the ground truth the network enforces (for grading).
func (s *SimNet) Truth() GroundTruth { return s.truth }
