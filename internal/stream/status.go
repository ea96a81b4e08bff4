package stream

// Status is a point-in-time snapshot of the pipeline: how much it has
// counted and what the local decide loop has made of it.
type Status struct {
	Reconfigurations int
	Rounds           int
	TotalEvents      int64
	Candidates       int
	Converged        bool
	History          []RoundRecord
}

// Status snapshots the pipeline: the intake's event total plus the
// local verdict and its per-round history.
func (p *Pipeline) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.eval
	return Status{
		Reconfigurations: len(e.deployed) - 1,
		Rounds:           len(p.history),
		TotalEvents:      p.in.TotalEvents(),
		Candidates:       len(e.loop.Candidates()),
		Converged:        e.converged,
		History:          append([]RoundRecord(nil), p.history...),
	}
}

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
