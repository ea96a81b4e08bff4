package stream

import (
	"time"

	"spooftrack/internal/trace"
)

// evaluate is the closed loop's tick: it folds the current round into
// the attribution state if it carries enough volume, and — unless
// localization has converged — deploys the configuration the greedy
// scheduler picks next. The harvest sums every counter shard, so it sees
// everything Ingest accepted before it; once that reaches
// MinRoundPackets it folds the round (Evaluator.Fold) and starts the
// next one (Intake.AdvanceEpoch), which deploys the new configuration.
// With final=true (shutdown) it folds the round under the same gate and
// deploys nothing: a shutdown tail below MinRoundPackets would eliminate
// every source it did not happen to carry. Folds emit a "stream.eval"
// span under parent; ticks that skip (too little volume) emit nothing.
func (p *Pipeline) evaluate(final bool, parent *trace.Span) {
	in, h := p.in, &p.round
	in.harvest(h)
	if sum(h.Pkts) < in.cfg.MinRoundPackets {
		return
	}
	roundPackets := sum(h.Pkts)
	esp := trace.StartChild(parent, "stream.eval")

	p.mu.Lock()
	out := p.eval.Fold(in.cfg.Ledger, h.Pkts, final)
	p.history = append(p.history, RoundRecord{
		Config:      out.Config,
		Started:     p.started,
		Ended:       time.Now(),
		Packets:     roundPackets,
		Bytes:       sum(h.Bytes),
		NumClusters: out.Clusters,
		MeanSize:    out.MeanSize,
		Candidates:  out.Candidates,
	})
	// Start the next round (same config if nothing new to deploy). The
	// epoch is the intake's own, so the advance cannot be refused.
	_ = in.AdvanceEpoch(h.Epoch+1, p.eval.Current())
	p.started = time.Now()
	p.mu.Unlock()

	if esp != nil {
		esp.Count("round_packets", roundPackets)
		esp.Count("clusters", int64(out.Clusters))
		esp.Count("candidates", int64(out.Candidates))
		if out.Deploy >= 0 {
			esp.Set(trace.Int("deploy_config", int64(out.Deploy)))
		}
		esp.End()
	}
}

// sum adds up per-link counters.
func sum(counts []int64) int64 {
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	return total
}
