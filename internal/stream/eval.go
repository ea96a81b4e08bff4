package stream

import (
	"errors"
	"fmt"

	"spooftrack/internal/provenance"
	"spooftrack/internal/report"
	"spooftrack/internal/sched"
	"spooftrack/internal/topo"
)

// EvalParams are the decide half of the loop: what determines, byte for
// byte, what a fold records and deploys. Config.Eval carries them, and
// the single-node Pipeline and the sharded controller (internal/shard)
// both build their Evaluator from that one value, which is what makes
// "byte-identical localization versus single-node" a property of shared
// code rather than of two implementations agreeing.
type EvalParams struct {
	// SplitThreshold: reconfigure while the top volume-ranked candidate
	// cluster holds more than this many sources (default 1 — drive to
	// singletons).
	SplitThreshold int
	// Blocked, if non-nil, is asked at each fold for the
	// per-configuration quarantine mask (nil = nothing blocked): blocked
	// configurations are routed around when picking the next deployment,
	// as if used, but become eligible again once unblocked. Wire it to
	// sched.QuarantineMask over the platform's link health.
	Blocked func() []bool
	// Remeasure, if non-nil, is asked at each fold for re-measurement
	// hints: source positions whose evidence channels conflict
	// (probe.Audit's conflict ASes mapped to campaign source positions).
	// When a round ends without a split-driven deployment, the fold
	// deploys the unused configuration that re-observes the most hinted
	// sources (sched.Loop.Next). Both callbacks run under the lock of
	// whoever owns the Evaluator and must not call back into it.
	Remeasure func() []int
}

// DefaultMinRoundPackets is the volume a round must carry before a fold
// acts on it when Config.MinRoundPackets (or the shard controller's) is
// unset — acting on a near-empty round would eliminate every quiet
// source.
const DefaultMinRoundPackets = 50

// ErrNoRounds is Evidence's answer before the first fold: with no
// round folded every source is still a candidate.
var ErrNoRounds = errors.New("stream: no rounds folded yet: evidence would list every source as a candidate")

// noiseFloor is the fraction of a round's total volume below which a
// link counts as silent when folding the round — absorbs packets
// straggling across a reconfiguration under the old catchment table.
const noiseFloor = 0.02

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

// Evaluator is the attribution loop's fold-and-decide core: the
// single-node Pipeline folds its intake's rounds through it and the
// sharded controller folds merged per-shard counters through it, with
// the same Fold. It is the round transcript around a sched.Loop, which
// holds the decision state and policy. It is not goroutine-safe; callers
// serialize access (the Pipeline and the shard controller each under
// their own mutex).
type Evaluator struct {
	attr Attribution
	par  EvalParams
	loop *sched.Loop

	// deployed and rounds only grow by appending, and no element is
	// written after it is appended, so a Snapshot shares them.
	deployed  []int
	rounds    []EvalRound
	converged bool
	// verdictCands is the candidate list the last ledger verdict holds.
	verdictCands []int
}

// NewEvaluator builds an evaluator over the attribution matrix with the
// initial configuration deployed.
func NewEvaluator(attr Attribution, par EvalParams) *Evaluator {
	par.setDefaults()
	return &Evaluator{
		attr:     attr,
		par:      par,
		loop:     sched.NewLoop(attr.Catchments, attr.InitialConfig, par.SplitThreshold),
		deployed: []int{attr.InitialConfig},
	}
}

// Step folds one round of per-link packet counters into the attribution
// state and — unless final — deploys what sched.Loop.Next picks: a
// greedy volume-ranked split when the top candidate cluster is still too
// coarse, else a re-measurement of hinted sources. blocked is the
// per-configuration quarantine mask (nil = nothing blocked); scored
// also returns the candidate set the chosen split beat (for
// provenance).
func (e *Evaluator) Step(roundPkts []int64, final bool, blocked []bool, hints []int, scored bool) Outcome {
	// Links below the noise floor are treated as silent so that a
	// handful of packets straggling across a reconfiguration (stamped
	// under the previous catchment table) cannot keep a cluster alive.
	volumes := make([]float64, len(roundPkts))
	floor := noiseFloor * float64(sum(roundPkts))
	for l, n := range roundPkts {
		if v := float64(n); v > floor {
			volumes[l] = v
		}
	}

	cur := e.loop.Current()
	e.loop.Fold(cur, volumes)
	e.rounds = append(e.rounds, EvalRound{Config: cur, Volumes: volumes})
	part := e.loop.Partition()
	out := Outcome{
		Round:      len(e.rounds),
		Config:     cur,
		Volumes:    volumes,
		Clusters:   part.NumClusters(),
		Candidates: len(e.loop.Candidates()),
		Deploy:     -1,
	}
	if out.Clusters > 0 {
		out.MeanSize = float64(part.NumSources()) / float64(out.Clusters)
	}
	if !final {
		out.Deploy, out.Reason, out.Scores = e.loop.Next(blocked, hints, scored)
		if out.Deploy >= 0 {
			e.deploy(out.Deploy)
		}
	}
	e.converged = e.loop.Converged()
	out.Converged = e.converged
	return out
}

// deploy makes cfg the configuration the next round is measured under.
func (e *Evaluator) deploy(cfg int) {
	e.loop.Deploy(cfg)
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
		SplitThreshold: e.par.SplitThreshold,
		NoiseFloor:     noiseFloor,
		InitialConfig:  e.attr.InitialConfig,
	})
	for c, row := range e.attr.Catchments {
		led.RecordRowShared(provenance.RowEvent{Config: c, Catchment: row})
	}
	led.RecordDeploy(provenance.DeployEvent{Config: e.attr.InitialConfig, Attempts: 1, Phase: "initial"})
}

// Fold is one round of the loop's decide half: it asks the Blocked and
// Remeasure callbacks, folds roundPkts, decides the next deployment
// unless final, and records all of it to led (StepRecorded). Both
// control loops fold through it.
func (e *Evaluator) Fold(led *provenance.Ledger, roundPkts []int64, final bool) Outcome {
	var blocked []bool
	if e.par.Blocked != nil {
		blocked = e.par.Blocked()
	}
	var hints []int
	if e.par.Remeasure != nil {
		hints = e.par.Remeasure()
	}
	return e.StepRecorded(led, roundPkts, final, blocked, hints)
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
	led.RecordRound(provenance.RoundEvent{
		Round:      out.Round,
		Config:     out.Config,
		Packets:    sum(roundPkts),
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
	// The loop refills its candidate list at the next fold, so the ledger
	// keeps a copy. The set only shrinks, so a verdict with as many
	// candidates as the last names the same set and shares its copy.
	// Assignments is already a copy.
	if c := e.loop.Candidates(); len(c) != len(e.verdictCands) {
		e.verdictCands = append([]int(nil), c...)
	}
	led.RecordVerdictShared(provenance.VerdictEvent{
		Origin:     "stream",
		Round:      out.Round,
		Candidates: e.verdictCands,
		Assign:     e.loop.Partition().Assignments(),
		Clusters:   out.Clusters,
		Converged:  out.Converged,
	})
	return out
}

// Current returns the configuration the evaluator expects the next
// round to be measured under.
func (e *Evaluator) Current() int { return e.loop.Current() }

// Deployed returns the configurations deployed so far, in order.
func (e *Evaluator) Deployed() []int { return append([]int(nil), e.deployed...) }

// Candidates returns the current candidate source positions.
func (e *Evaluator) Candidates() []int { return append([]int(nil), e.loop.Candidates()...) }

// NumCandidates returns how many candidates Candidates would return,
// without the copy.
func (e *Evaluator) NumCandidates() int { return len(e.loop.Candidates()) }

// Converged reports whether the loop has refined as far as it can.
func (e *Evaluator) Converged() bool { return e.converged }

// Rounds returns how many rounds have been folded.
func (e *Evaluator) Rounds() int { return len(e.rounds) }

// Assignments returns the per-source cluster assignment (the
// localization verdict at the current refinement).
func (e *Evaluator) Assignments() []int32 { return e.loop.Partition().Assignments() }

// NumClusters returns the current cluster count.
func (e *Evaluator) NumClusters() int { return e.loop.Partition().NumClusters() }

// Evidence assembles the operator notification report (internal/report)
// from every folded round — the per-candidate volume shares and
// corroborating configurations §I's adoption-driving use case needs. It
// returns ErrNoRounds before the first fold.
func (e *Evaluator) Evidence() (*report.Report, error) {
	if len(e.rounds) == 0 {
		return nil, ErrNoRounds
	}
	part := e.loop.Partition()
	in := report.Input{
		Sources:          make([]int, part.NumSources()),
		ASNOf:            func(i int) topo.ASN { return e.attr.SourceASNs[i] },
		Partition:        part,
		CandidateIndexes: e.loop.Candidates(),
	}
	for i := range in.Sources {
		in.Sources[i] = i
	}
	for _, r := range e.rounds {
		in.Catchments = append(in.Catchments, e.attr.Catchments[r.Config])
		in.Volumes = append(in.Volumes, r.Volumes)
	}
	return report.Build(in)
}

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

// Snapshot captures the evaluator's replayable state without copying
// it: Deployed and Rounds share the evaluator's history. That history
// only grows by appending and each round's Volumes is never written
// after its fold, so later folds write past the snapshot's capacity and
// leave it as it was. Callers must not modify it.
func (e *Evaluator) Snapshot() EvalSnapshot {
	return EvalSnapshot{
		Current:   e.loop.Current(),
		Deployed:  e.deployed[:len(e.deployed):len(e.deployed)],
		Converged: e.converged,
		Rounds:    e.rounds[:len(e.rounds):len(e.rounds)],
	}
}

// RestoreEvaluator rebuilds an evaluator from a snapshot by refolding
// every recorded round through sched.Loop.Fold — deterministic replay
// through the same code the live step runs, never a structural copy.
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
		volumes := append([]float64(nil), r.Volumes...)
		e.loop.Fold(r.Config, volumes)
		e.rounds = append(e.rounds, EvalRound{Config: r.Config, Volumes: volumes})
	}
	if s.Current != e.loop.Current() {
		return nil, fmt.Errorf("stream: snapshot current config %d, last deployed %d", s.Current, e.loop.Current())
	}
	e.converged = s.Converged
	return e, nil
}
