package stream

import (
	"time"

	"spooftrack/internal/trace"
)

// evaluate is the closed loop's tick: after the intake's recovery
// bookkeeping it folds the current round into the attribution state if
// it carries enough volume, and — unless localization has converged —
// deploys the configuration the greedy scheduler picks next. With
// final=true (shutdown) it folds whatever the round holds. Folds emit a
// "stream.eval" span under parent; ticks that skip (too little volume)
// emit nothing.
func (p *Pipeline) evaluate(final bool, parent *trace.Span) {
	t0 := time.Now()
	in := p.in
	in.tick()

	// Quarantine mask and re-measurement hints, refreshed every
	// evaluation (outside in.mu — the callbacks may take other locks):
	// blocked configurations become eligible again the moment their
	// links leave quarantine; hints are probe-conflict sources worth
	// re-observing when no split is pending.
	var blocked []bool
	if in.cfg.Blocked != nil {
		blocked = in.cfg.Blocked()
	}
	var hints []int
	if in.cfg.Remeasure != nil {
		hints = in.cfg.Remeasure()
	}

	in.mu.Lock()
	st := &in.st
	roundPackets := in.roundPacketsLocked()
	if roundPackets == 0 || (!final && roundPackets < in.cfg.MinRoundPackets) {
		in.mu.Unlock()
		return
	}
	esp := trace.StartChild(parent, "stream.eval")

	// Fold the round, decide the next deployment and record both — the
	// Evaluator is the one fold-decide-record step, also run by
	// internal/shard's controller over merged per-shard counters.
	out := p.eval.StepRecorded(in.cfg.Ledger, st.roundPkts, final, blocked, hints)

	roundBytes := int64(0)
	for _, n := range st.roundBytes {
		roundBytes += n
	}
	rec := RoundRecord{
		Config:      out.Config,
		Started:     st.roundStart,
		Ended:       time.Now(),
		Packets:     roundPackets,
		Bytes:       roundBytes,
		Volumes:     out.Volumes,
		NumClusters: out.Clusters,
		MeanSize:    out.MeanSize,
		Candidates:  out.Candidates,
	}
	p.history = append(p.history, rec)
	p.mRounds.Inc()
	p.mClusters.Set(float64(out.Clusters))
	p.mMeanSize.Set(out.MeanSize)
	p.mCands.Set(float64(out.Candidates))
	switch out.Reason {
	case "split":
		p.mReconfig.Inc()
	case "remeasure":
		p.mRemeasure.Inc()
	}

	// Start the next round (same config if nothing new to deploy).
	in.advanceLocked(st.epoch+1, out.Deploy)
	in.mu.Unlock()

	if out.Deploy >= 0 {
		in.deploy(out.Deploy)
	}
	p.hEval.Observe(time.Since(t0).Seconds())
	if esp != nil {
		esp.Count("round_packets", roundPackets)
		esp.Count("clusters", int64(out.Clusters))
		esp.Count("candidates", int64(rec.Candidates))
		if out.Deploy >= 0 {
			esp.Set(trace.Int("deploy_config", int64(out.Deploy)))
		}
		esp.End()
	}
}
