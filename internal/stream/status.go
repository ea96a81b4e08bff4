package stream

// Candidates returns the current candidate source positions.
func (p *Pipeline) Candidates() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eval.Candidates()
}

// Deployed returns the configurations deployed so far, in order.
func (p *Pipeline) Deployed() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eval.Deployed()
}

// Converged reports whether the top volume-ranked candidate cluster is
// within the split threshold.
func (p *Pipeline) Converged() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eval.Converged()
}
