package stream

import (
	"time"

	"spooftrack/internal/trace"
)

// controller is the closed loop: evaluate the current round on a tick,
// and reconfigure when the attribution is still too coarse.
func (p *Pipeline) controller() {
	defer p.wg.Done()
	var csp *trace.Span
	if p.span != nil {
		csp = p.span.ChildTrack("stream.controller")
		defer csp.End()
	}
	ticker := time.NewTicker(p.cfg.EvalInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.evaluate(false, csp)
		}
	}
}

// evaluate folds the current round into the attribution state if it
// carries enough volume, and — unless localization has converged —
// deploys the configuration the greedy scheduler picks next. With
// final=true (shutdown) it folds whatever the round holds. Folds emit a
// "stream.eval" span under parent; ticks that skip (too little volume)
// emit nothing.
func (p *Pipeline) evaluate(final bool, parent *trace.Span) {
	t0 := time.Now()
	p.mEvals.Inc()

	// Quarantine mask and re-measurement hints, refreshed every
	// evaluation (outside p.mu — the callbacks may take other locks):
	// blocked configurations become eligible again the moment their
	// links leave quarantine; hints are probe-conflict sources worth
	// re-observing when no split is pending.
	var blocked []bool
	if p.cfg.Blocked != nil {
		blocked = p.cfg.Blocked()
	}
	var hints []int
	if p.cfg.Remeasure != nil {
		hints = p.cfg.Remeasure()
	}
	// Evaluated outside p.mu like the other callbacks: recovery oracles
	// typically query metric history and may take their own locks.
	recoveryOK := true
	if p.cfg.DegradedRecovery != nil {
		recoveryOK = p.cfg.DegradedRecovery()
	}

	p.mu.Lock()
	st := &p.st
	roundPackets := int64(0)
	for _, n := range st.roundPkts {
		roundPackets += n
	}
	queued := p.queueDepth()
	p.mQueue.Set(float64(queued))
	// Degraded recovery: no shed drops since the last evaluation, the
	// queues have drained, and the recovery oracle (when configured)
	// agrees the overload has passed.
	if d := p.droppedN.Load(); d == st.lastDropped {
		if queued == 0 && recoveryOK && p.degraded.Load() {
			p.degraded.Store(false)
		}
	} else {
		st.lastDropped = d
	}
	if p.cfg.Relay {
		// Relay mode: the sharded-ingest controller owns folding and
		// deployment (HarvestRound / AdvanceEpoch); local evaluation
		// stops at overload-recovery bookkeeping.
		p.mu.Unlock()
		return
	}
	if roundPackets == 0 || (!final && roundPackets < p.cfg.MinRoundPackets) {
		p.mu.Unlock()
		return
	}
	esp := trace.StartChild(parent, "stream.eval")

	// Fold the round, decide the next deployment and record both — the
	// Evaluator is the one fold-decide-record step, also run by
	// internal/shard's controller over merged per-shard counters.
	out := st.eval.StepRecorded(p.cfg.Ledger, st.roundPkts, final, blocked, hints)

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
	st.history = append(st.history, rec)
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
	p.advanceLocked(st.epoch+1, out.Deploy >= 0)
	p.mu.Unlock()

	if out.Deploy >= 0 {
		p.deploy(out.Deploy)
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

// advanceLocked starts the round accumulated under the given epoch:
// zero the round counters, publish the epoch, and — when a new
// configuration is about to be deployed — arm the settle window. The
// epoch bump invalidates worker batches accumulated before it — flushed
// late, they would otherwise leak the old round's per-link counts into
// the new one. The settle deadline is published before the caller drops
// p.mu so no event produced under the old configuration can observe a
// stale value.
func (p *Pipeline) advanceLocked(epoch int64, settle bool) {
	st := &p.st
	for l := range st.roundPkts {
		st.roundPkts[l], st.roundBytes[l] = 0, 0
	}
	st.epoch = epoch
	p.epoch.Store(epoch)
	st.roundStart = time.Now()
	if settle && p.cfg.Settle > 0 {
		p.settleUntil.Store(time.Now().Add(p.cfg.Settle).UnixNano())
	}
}

// queueDepth sums the occupancy of every shard channel (approximate).
func (p *Pipeline) queueDepth() int {
	d := 0
	for _, ch := range p.shards {
		d += len(ch)
	}
	return d
}
