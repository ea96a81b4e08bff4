package stream

// evaluate is the closed loop's tick: it folds the current round into
// the attribution state if it carries enough volume, and — unless
// localization has converged — deploys the configuration the greedy
// scheduler picks next. The harvest sums every counter shard, so it sees
// everything Ingest accepted before it; once that reaches
// MinRoundPackets it folds the round (Evaluator.Fold) and starts the
// next one (Intake.AdvanceEpoch), which deploys the new configuration.
// With final=true (shutdown) it folds the round under the same gate and
// deploys nothing: a shutdown tail below MinRoundPackets would eliminate
// every source it did not happen to carry.
func (p *Pipeline) evaluate(final bool) {
	in, h := p.in, &p.round
	in.harvest(h)
	if sum(h.Pkts) < in.cfg.MinRoundPackets {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.eval.Fold(in.cfg.Ledger, h.Pkts, final)
	// Start the next round (same config if nothing new to deploy). The
	// epoch is the intake's own, so the advance cannot be refused.
	_ = in.AdvanceEpoch(h.Epoch+1, p.eval.Current())
}

// sum adds up per-link counters.
func sum(counts []int64) int64 {
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	return total
}
