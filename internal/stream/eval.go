package stream

import (
	"fmt"

	"spooftrack/internal/cluster"
	"spooftrack/internal/provenance"
	"spooftrack/internal/sched"
	"spooftrack/internal/spoof"
)

// EvalParams are the decision-relevant knobs of the attribution loop —
// the subset of Config that determines, byte for byte, what the
// controller folds and deploys. The single-node Pipeline and the
// sharded controller (internal/shard) both run an Evaluator built from
// the same params, which is what makes "byte-identical localization
// versus single-node" a property of shared code rather than of two
// implementations agreeing.
type EvalParams struct {
	// SplitThreshold: reconfigure while the top volume-ranked candidate
	// cluster holds more than this many sources (default 1).
	SplitThreshold int
}

const (
	// maxMisses is the localization tolerance (spoof.LocalizeTolerant):
	// 0, the paper's exact correlation.
	maxMisses = 0
	// noiseFloor is the fraction of a round's total volume below which a
	// link counts as silent when folding the round — absorbs packets
	// straggling across a reconfiguration under the old catchment table.
	noiseFloor = 0.02
)

func (p *EvalParams) setDefaults() {
	if p.SplitThreshold <= 0 {
		p.SplitThreshold = 1
	}
}

// EvalRound is one folded round as the Evaluator records it: the
// configuration it was measured under and the post-noise-floor per-link
// volumes. The sequence of EvalRounds is a complete, replayable
// transcript of the attribution state — RestoreEvaluator rebuilds the
// localizer and partition by refolding them.
type EvalRound struct {
	Config  int       `json:"config"`
	Volumes []float64 `json:"volumes"`
}

// Outcome is what one Evaluator step decided: the round that was folded
// and the deployment (if any) that follows it.
type Outcome struct {
	// Round is the 1-based round number just folded.
	Round int
	// Config is the configuration the round was measured under.
	Config int
	// Volumes are the post-noise-floor per-link volumes that were folded.
	Volumes []float64
	// Clusters / MeanSize / Candidates summarize the attribution state
	// after the fold.
	Clusters   int
	MeanSize   float64
	Candidates int
	// Deploy is the configuration chosen for the next round, or -1 when
	// the evaluator stays on the current one.
	Deploy int
	// Reason is "split" or "remeasure" when Deploy >= 0.
	Reason string
	// Scores is the candidate set the chosen split configuration beat
	// (only populated when scored=true and Reason=="split").
	Scores []sched.ConfigScore
	// Converged reports whether the top volume-ranked candidate cluster
	// is within the split threshold (or cannot be split further).
	Converged bool
}

// Evaluator is the attribution loop's fold-and-decide core, extracted
// from the Pipeline controller so the sharded controller can run the
// exact same logic over merged per-shard counters. It is not
// goroutine-safe; callers serialize access (the Pipeline under p.mu,
// the shard controller from its single round loop).
type Evaluator struct {
	attr Attribution
	par  EvalParams

	current    int
	deployed   []int
	used       []bool
	part       *cluster.Partition
	loc        *spoof.IncrementalLocalizer
	candidates []int
	converged  bool
	rounds     []EvalRound
}

// NewEvaluator builds an evaluator over the attribution matrix with the
// initial configuration deployed.
func NewEvaluator(attr Attribution, par EvalParams) *Evaluator {
	par.setDefaults()
	n := len(attr.Catchments[0])
	e := &Evaluator{
		attr:     attr,
		par:      par,
		current:  attr.InitialConfig,
		deployed: []int{attr.InitialConfig},
		used:     make([]bool, len(attr.Catchments)),
		part:     cluster.New(n),
		loc:      spoof.NewIncrementalLocalizer(n),
	}
	e.used[attr.InitialConfig] = true
	e.candidates = allSources(n)
	return e
}

// Step folds one round of per-link packet counters into the attribution
// state and — unless final — decides the next deployment: a greedy
// volume-ranked split when the top candidate cluster is still too
// coarse, else a re-measurement of hinted sources. blocked is the
// per-configuration quarantine mask (nil = nothing blocked); scored
// also returns the candidate set the chosen split beat (for
// provenance).
func (e *Evaluator) Step(roundPkts []int64, final bool, blocked []bool, hints []int, scored bool) Outcome {
	roundPackets := int64(0)
	for _, n := range roundPkts {
		roundPackets += n
	}
	// Links below the noise floor are treated as silent so that a
	// handful of packets straggling across a reconfiguration (stamped
	// under the previous catchment table) cannot keep a cluster alive.
	volumes := make([]float64, len(roundPkts))
	floor := noiseFloor * float64(roundPackets)
	for l, n := range roundPkts {
		if v := float64(n); v > floor {
			volumes[l] = v
		}
	}

	cur := e.current
	e.fold(cur, volumes)
	e.candidates = e.loc.Candidates(maxMisses)

	out := Outcome{
		Round:      len(e.rounds),
		Config:     cur,
		Volumes:    volumes,
		Clusters:   e.part.NumClusters(),
		Candidates: len(e.candidates),
		Deploy:     -1,
	}
	if out.Clusters > 0 {
		out.MeanSize = float64(e.part.NumSources()) / float64(out.Clusters)
	}

	// Volume-ranked clusters: estimate per-source volume, then find the
	// heaviest candidate cluster still above the split threshold.
	estVol := sched.EstimateVolumes(e.attr.Catchments[cur], e.candidates, volumes)
	topID, topSize := sched.TopVolumeCluster(e.part, e.candidates, estVol)

	// The loop is done when the heaviest cluster is small enough, or
	// when no remaining configuration separates its members — clusters
	// bound localization precision (§V), so deploying further would
	// burn configurations without refining anything.
	canSplit := topSize > e.par.SplitThreshold &&
		sched.Splittable(e.attr.Catchments, e.used, e.part.MembersOf(topID))
	if !final {
		if canSplit {
			// Quarantined configurations are routed around, not consumed:
			// if every useful configuration is blocked the loop simply waits
			// (converged stays false) and retries them once their links heal.
			next, scores := sched.NextGreedyVolumeScored(e.part, e.attr.Catchments, estVol, e.used, blocked, scored)
			if next >= 0 {
				out.Deploy, out.Reason, out.Scores = next, "split", scores
			}
		}
		// Probe-conflict re-measurement: when no split is pending but the
		// probe channel disagrees with the catchment evidence for some
		// sources, spend the round re-observing them under the unused
		// configuration that covers the most conflicted sources.
		if out.Deploy < 0 && len(hints) > 0 {
			if next := sched.NextRemeasure(e.attr.Catchments, hints, e.used, blocked); next >= 0 {
				out.Deploy, out.Reason = next, "remeasure"
			}
		}
		if out.Deploy >= 0 {
			e.deploy(out.Deploy)
		}
	}
	e.converged = topSize >= 0 && !canSplit
	out.Converged = e.converged
	return out
}

// fold adds one round, measured under configuration cfg, to the
// localizer, the partition and the transcript. It retains volumes.
func (e *Evaluator) fold(cfg int, volumes []float64) {
	row := e.attr.Catchments[cfg]
	e.loc.AddRound(row, volumes)
	e.part.Refine(row)
	e.rounds = append(e.rounds, EvalRound{Config: cfg, Volumes: volumes})
}

// deploy makes cfg the configuration the next round is measured under.
func (e *Evaluator) deploy(cfg int) {
	e.used[cfg] = true
	e.current = cfg
	e.deployed = append(e.deployed, cfg)
}

// OpenLedger opens the provenance chain: the loop's decision
// parameters, the full catchment evidence table (one row per
// configuration — the leaves every verdict chain must account for), and
// the initial deployment. The rows are recorded shared: the attribution
// matrix is immutable by contract. A nil ledger records nothing.
func (e *Evaluator) OpenLedger(led *provenance.Ledger) {
	if !led.Enabled() {
		return
	}
	led.RecordMeta(provenance.MetaEvent{
		Component:      "stream",
		NumSources:     len(e.attr.Catchments[0]),
		NumConfigs:     len(e.attr.Catchments),
		NumLinks:       e.attr.NumLinks,
		MaxMisses:      maxMisses,
		SplitThreshold: e.par.SplitThreshold,
		NoiseFloor:     noiseFloor,
		InitialConfig:  e.attr.InitialConfig,
	})
	for c, row := range e.attr.Catchments {
		led.RecordRowShared(provenance.RowEvent{Config: c, Catchment: row})
	}
	led.RecordDeploy(provenance.DeployEvent{Config: e.attr.InitialConfig, Attempts: 1, Phase: "initial"})
}

// StepRecorded is Step plus its provenance record: the round fold, the
// reconfiguration decision (with the candidate set it beat, the
// configurations quarantine routed around and the hints that drove a
// re-measurement) and the verdict after the fold, in the order
// provenance.Replay re-executes them. With a nil ledger it is exactly
// Step unscored and builds no event.
func (e *Evaluator) StepRecorded(led *provenance.Ledger, roundPkts []int64, final bool, blocked []bool, hints []int) Outcome {
	out := e.Step(roundPkts, final, blocked, hints, led.Enabled())
	if !led.Enabled() {
		return out
	}
	packets := int64(0)
	for _, n := range roundPkts {
		packets += n
	}
	led.RecordRound(provenance.RoundEvent{
		Round:      out.Round,
		Config:     out.Config,
		Packets:    packets,
		Volumes:    out.Volumes,
		Clusters:   out.Clusters,
		Candidates: out.Candidates,
	})
	if out.Deploy >= 0 {
		rc := provenance.ReconfigEvent{Round: out.Round, Chosen: out.Deploy, Reason: out.Reason, Beaten: out.Scores}
		for c, b := range blocked {
			if b {
				rc.Blocked = append(rc.Blocked, c)
			}
		}
		if out.Reason == "remeasure" {
			rc.Hints = append([]int(nil), hints...)
		}
		led.RecordReconfig(rc)
	}
	// The candidate list is replaced, never edited, by the next fold and
	// Assignments is already a copy, so the ledger can keep both.
	led.RecordVerdictShared(provenance.VerdictEvent{
		Origin:     "stream",
		Round:      out.Round,
		Candidates: e.candidates,
		Assign:     e.part.Assignments(),
		Clusters:   out.Clusters,
		Converged:  out.Converged,
	})
	return out
}

// Current returns the configuration the evaluator expects the next
// round to be measured under.
func (e *Evaluator) Current() int { return e.current }

// Deployed returns the configurations deployed so far, in order.
func (e *Evaluator) Deployed() []int { return append([]int(nil), e.deployed...) }

// Candidates returns the current candidate source positions.
func (e *Evaluator) Candidates() []int { return append([]int(nil), e.candidates...) }

// Converged reports whether the loop has refined as far as it can.
func (e *Evaluator) Converged() bool { return e.converged }

// Rounds returns how many rounds have been folded.
func (e *Evaluator) Rounds() int { return len(e.rounds) }

// Assignments returns the per-source cluster assignment (the
// localization verdict at the current refinement).
func (e *Evaluator) Assignments() []int32 { return e.part.Assignments() }

// NumClusters returns the current cluster count.
func (e *Evaluator) NumClusters() int { return e.part.NumClusters() }

// EvalSnapshot is the Evaluator's complete serializable state: the
// deployment transcript plus every folded round. Restoring replays the
// rounds through the same fold code, so a snapshot shipped across the
// wire (the shard controller's failover protocol) reproduces the
// evaluator byte-for-byte.
type EvalSnapshot struct {
	Current   int         `json:"current"`
	Deployed  []int       `json:"deployed"`
	Converged bool        `json:"converged"`
	Rounds    []EvalRound `json:"rounds"`
}

// Snapshot captures the evaluator's replayable state.
func (e *Evaluator) Snapshot() EvalSnapshot {
	s := EvalSnapshot{
		Current:   e.current,
		Deployed:  append([]int(nil), e.deployed...),
		Converged: e.converged,
		Rounds:    make([]EvalRound, len(e.rounds)),
	}
	for i, r := range e.rounds {
		s.Rounds[i] = EvalRound{Config: r.Config, Volumes: append([]float64(nil), r.Volumes...)}
	}
	return s
}

// RestoreEvaluator rebuilds an evaluator from a snapshot by refolding
// every recorded round — deterministic replay through the same
// localizer and refinement code, never a structural copy.
func RestoreEvaluator(attr Attribution, par EvalParams, s EvalSnapshot) (*Evaluator, error) {
	e := NewEvaluator(attr, par)
	if len(s.Deployed) == 0 {
		return nil, fmt.Errorf("stream: snapshot has no deployments")
	}
	if s.Deployed[0] != attr.InitialConfig {
		return nil, fmt.Errorf("stream: snapshot initial config %d, attribution says %d", s.Deployed[0], attr.InitialConfig)
	}
	for _, c := range s.Deployed[1:] {
		if c < 0 || c >= len(attr.Catchments) {
			return nil, fmt.Errorf("stream: snapshot deploys config %d out of range", c)
		}
		e.deploy(c)
	}
	for _, r := range s.Rounds {
		if r.Config < 0 || r.Config >= len(attr.Catchments) {
			return nil, fmt.Errorf("stream: snapshot round folds config %d out of range", r.Config)
		}
		e.fold(r.Config, append([]float64(nil), r.Volumes...))
	}
	e.candidates = e.loc.Candidates(maxMisses)
	e.current = s.Current
	e.converged = s.Converged
	return e, nil
}
