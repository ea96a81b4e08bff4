// Package provenance is the decision-provenance ledger: an append-only
// record of every input that shaped a localization verdict
// — deployed configurations and their catchment rows, retry / degrade /
// quarantine events from the fault substrate, probe-channel verdicts
// with confidences, each stream round fold, and every greedy
// reconfiguration decision together with the candidate set it beat. The
// paper's end product is an accusation ("this AS forwards spoofed
// packets"); the ledger is what lets an operator justify it before
// filing an abuse report: the full measurement trail exports as a JSON
// timeline or a DOT provenance graph, and Replay re-runs localization
// purely from the recorded events, asserting it reproduces the live
// verdict byte for byte — a black-box flight recorder for postmortems.
//
// The package follows internal/trace's nil fast path: a nil *Ledger is
// valid and permanently disabled, and every method is a nil-safe no-op,
// so instrumented hot paths pay one nil check per event site when
// provenance is off:
//
//	led.Round(provenance.RoundEvent{...}) // no-op when led == nil
//
// Concurrent producers (campaign deploy workers, the stream controller,
// the probe scan loop) append under one mutex that assigns the sequence
// number, so the ledger is always a gap-free sequence and every Export —
// live or final — is a prefix of it.
package provenance

import (
	"sync"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/sched"
)

// Kind tags an event with its evidence type.
type Kind string

// Event kinds, in rough pipeline order.
const (
	// KindMeta opens a component's event stream (campaign or stream)
	// and carries the dimensions Replay needs.
	KindMeta Kind = "meta"
	// KindDeploy records one configuration's deployment (with attempts).
	KindDeploy Kind = "deploy"
	// KindRetry records one retried deploy/measure attempt.
	KindRetry Kind = "retry"
	// KindDegrade records a configuration permanently lost to faults.
	KindDegrade Kind = "degrade"
	// KindRow records a configuration's final catchment row — the
	// evidence clustering and localization consume.
	KindRow Kind = "catchment_row"
	// KindQuarantine records a link circuit-breaker transition.
	KindQuarantine Kind = "quarantine"
	// KindProbe records a promoted probe-channel verdict.
	KindProbe Kind = "probe_verdict"
	// KindRound records one stream round fold (config, volumes, state).
	KindRound Kind = "round"
	// KindReconfig records a greedy reconfiguration decision and the
	// candidate set it beat.
	KindReconfig Kind = "reconfig"
	// KindVerdict records the attribution verdict after a fold (or the
	// campaign's final partition).
	KindVerdict Kind = "verdict"
	// KindMembership records a sharded-ingest membership transition
	// (shard joined, drained, evicted, or restored).
	KindMembership Kind = "membership"
	// KindFailover records a controller leadership transition: a lease
	// acquired at a new term, an abdication, or a failover recovery.
	KindFailover Kind = "failover"
)

// Event is one ledger entry: a global sequence number, a wall-clock
// stamp (never consulted by Replay), the kind, and exactly one non-nil
// payload matching the kind.
type Event struct {
	Seq  uint64    `json:"seq"`
	Wall time.Time `json:"wall"`
	Kind Kind      `json:"kind"`

	Meta       *MetaEvent       `json:"meta,omitempty"`
	Deploy     *DeployEvent     `json:"deploy,omitempty"`
	Retry      *RetryEvent      `json:"retry,omitempty"`
	Degrade    *DegradeEvent    `json:"degrade,omitempty"`
	Row        *RowEvent        `json:"row,omitempty"`
	Quarantine *QuarantineEvent `json:"quarantine,omitempty"`
	Probe      *ProbeEvent      `json:"probe,omitempty"`
	Round      *RoundEvent      `json:"round,omitempty"`
	Reconfig   *ReconfigEvent   `json:"reconfig,omitempty"`
	Verdict    *VerdictEvent    `json:"verdict,omitempty"`
	Membership *MembershipEvent `json:"membership,omitempty"`
	Failover   *FailoverEvent   `json:"failover,omitempty"`
}

// MetaEvent opens a component's stream of events and fixes the
// dimensions Replay validates against.
type MetaEvent struct {
	// Component is "campaign" (offline deployment) or "stream" (the
	// live closed loop).
	Component string `json:"component"`
	// NumSources / NumConfigs / NumLinks size the evidence matrices.
	NumSources int `json:"num_sources"`
	NumConfigs int `json:"num_configs"`
	NumLinks   int `json:"num_links"`
	// SplitThreshold, NoiseFloor, and InitialConfig are the stream
	// controller's decision parameters (zero for campaigns).
	SplitThreshold int     `json:"split_threshold,omitempty"`
	NoiseFloor     float64 `json:"noise_floor,omitempty"`
	InitialConfig  int     `json:"initial_config,omitempty"`
	// UseTruth marks a campaign that read catchments off the engine.
	UseTruth bool `json:"use_truth,omitempty"`
}

// DeployEvent records one configuration deployment.
type DeployEvent struct {
	Config int `json:"config"`
	// Key is the canonical announcement key (bgp.Config.Key).
	Key string `json:"key,omitempty"`
	// Attempts is how many deployment attempts the configuration took
	// (1 on a clean deploy).
	Attempts int `json:"attempts"`
	// Phase names the plan phase that generated the configuration.
	Phase string `json:"phase,omitempty"`
}

// RetryEvent records one retried attempt of a faulted phase.
type RetryEvent struct {
	Config int `json:"config"`
	// Phase is "deploy" or "measure".
	Phase   string `json:"phase"`
	Attempt int    `json:"attempt"`
	Error   string `json:"error,omitempty"`
}

// DegradeEvent records a configuration permanently lost to faults: its
// catchment row stays all-unknown and the final clustering is provably
// a coarsening of the fault-free one.
type DegradeEvent struct {
	Config int    `json:"config"`
	Phase  string `json:"phase"`
	Error  string `json:"error,omitempty"`
}

// RowEvent records a configuration's final catchment row — Replay's
// ground truth for refinement and localization.
type RowEvent struct {
	Config int `json:"config"`
	// Catchment[k] is source k's ingress link (bgp.NoLink = -1 when
	// unobserved).
	Catchment []bgp.LinkID `json:"catchment"`
	// Incomplete marks a row degraded to all-unknown by faults.
	Incomplete bool `json:"incomplete,omitempty"`
}

// QuarantineEvent records a peering-link circuit-breaker transition.
type QuarantineEvent struct {
	Link int    `json:"link"`
	From string `json:"from"`
	To   string `json:"to"`
}

// ProbeEvent records one promoted probe-channel verdict: the second
// evidence channel's contribution for one AS.
type ProbeEvent struct {
	// AS is the dense topology index probed; Source is the campaign
	// source position it maps to (-1 when the AS is not a source).
	AS     int `json:"as"`
	Source int `json:"source"`
	// Link is the measured ingress link (-1 unknown).
	Link int `json:"link"`
	// Signal is the promoted spoofability signal ("can_spoof",
	// "cannot_spoof").
	Signal     string  `json:"signal"`
	Confidence float64 `json:"confidence"`
	// Round is the probe scan round that promoted the verdict.
	Round int `json:"round"`
}

// RoundEvent records one stream round fold. Volumes are the post-noise-
// floor per-link volumes exactly as folded, so Replay recomputes the
// identical localizer and partition transitions.
type RoundEvent struct {
	Round      int       `json:"round"`
	Config     int       `json:"config"`
	Packets    int64     `json:"packets"`
	Volumes    []float64 `json:"volumes"`
	Clusters   int       `json:"clusters"`
	Candidates int       `json:"candidates"`
}

// CandidateScore is one scheduling candidate and the score it achieved
// in a greedy reconfiguration decision (lower is better) — the
// scheduler's own type, so a decision is recorded as it was computed.
type CandidateScore = sched.ConfigScore

// ReconfigEvent records one online reconfiguration decision: what was
// chosen, why, and the full candidate set it beat.
type ReconfigEvent struct {
	Round  int `json:"round"`
	Chosen int `json:"chosen"`
	// Reason is "split" (greedy volume-weighted refinement) or
	// "remeasure" (probe-conflict re-measurement hint).
	Reason string `json:"reason"`
	// Beaten lists every eligible candidate with its score (the chosen
	// configuration included), ascending by config index.
	Beaten []CandidateScore `json:"beaten,omitempty"`
	// Blocked lists configurations quarantine routed around.
	Blocked []int `json:"blocked,omitempty"`
	// Hints lists the re-measurement hint sources (reason "remeasure").
	Hints []int `json:"hints,omitempty"`
}

// VerdictEvent is the attribution verdict after a fold: the surviving
// candidate set and the cluster partition bounding localization
// precision. Cluster ids are dense and ordered by first occurrence
// (cluster.Partition.Refine's determinism), so Replay reproduces them
// exactly.
type VerdictEvent struct {
	// Origin is "stream" (per-fold verdict) or "campaign" (final
	// partition of the offline campaign).
	Origin string `json:"origin"`
	Round  int    `json:"round,omitempty"`
	// Candidates are the source positions still consistent with every
	// folded round (nil for campaign verdicts).
	Candidates []int `json:"candidates,omitempty"`
	// Assign[k] is source k's cluster id.
	Assign   []int32 `json:"assign"`
	Clusters int     `json:"clusters"`
	// Converged mirrors the controller's convergence flag.
	Converged bool `json:"converged,omitempty"`
}

// MembershipEvent records one sharded-ingest membership transition —
// the ledger's answer to "why is localization coarser than expected":
// a drained shard re-hashes its sources onto the survivors with no data
// loss, an evicted one forces discarded rounds and an explicit
// coarsening.
type MembershipEvent struct {
	// Node is the shard's id.
	Node string `json:"node"`
	// Action is "join", "drain" (SLO-breaching but reachable: final
	// harvest collected, range re-hashed), "evict" (unreachable past the
	// retry budget: rounds discarded), or "restore" (re-applied state
	// after failover recovery).
	Action string `json:"action"`
	Epoch  int64  `json:"epoch"`
	Term   uint64 `json:"term,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// FailoverEvent records a controller leadership transition.
type FailoverEvent struct {
	// Action is "elect" (lease acquired at a new term), "abdicate"
	// (lease renewal failed), or "recover" (evaluator state restored
	// from the highest-epoch shard snapshot after election).
	Action string `json:"action"`
	Leader string `json:"leader"`
	Term   uint64 `json:"term"`
	Epoch  int64  `json:"epoch,omitempty"`
	// Rounds is the number of folded rounds recovered (action "recover").
	Rounds int    `json:"rounds,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// Options configures a Ledger.
type Options struct {
	// Clock overrides the wall-clock source (tests; default time.Now).
	Clock func() time.Time
}

// Ledger is the append-only evidence ledger. All methods are safe for
// concurrent use; a nil *Ledger is valid and drops everything.
type Ledger struct {
	now func() time.Time

	// mu guards events, whose index is the sequence number less one.
	mu     sync.Mutex
	events []Event
}

// New builds an enabled ledger. To run with provenance off, keep a nil
// *Ledger instead — every method no-ops.
func New(opts Options) *Ledger {
	now := opts.Clock
	if now == nil {
		now = time.Now
	}
	return &Ledger{now: now}
}

// Enabled reports whether events are being recorded.
func (l *Ledger) Enabled() bool { return l != nil }

// append assigns the event the next sequence number and a wall stamp
// and stores it, all under mu: no export can see event n+1 without n.
func (l *Ledger) append(ev Event) {
	l.mu.Lock()
	ev.Seq = uint64(len(l.events)) + 1
	ev.Wall = l.now()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// RecordMeta appends a component meta event.
func (l *Ledger) RecordMeta(m MetaEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindMeta, Meta: &m})
}

// RecordDeploy appends a configuration deployment.
func (l *Ledger) RecordDeploy(d DeployEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindDeploy, Deploy: &d})
}

// RecordRetry appends a retried attempt.
func (l *Ledger) RecordRetry(r RetryEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindRetry, Retry: &r})
}

// RecordDegrade appends a permanent configuration loss.
func (l *Ledger) RecordDegrade(d DegradeEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindDegrade, Degrade: &d})
}

// RecordRowShared appends a configuration's catchment row without a
// defensive copy: the ledger retains the caller's Catchment slice, so
// the caller must never mutate it afterwards. Every recorder hands it
// rows of a catchment matrix that is immutable once built, where
// copying hundreds of rows would be the ledger's dominant cost.
func (l *Ledger) RecordRowShared(r RowEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindRow, Row: &r})
}

// RecordQuarantine appends a breaker transition.
func (l *Ledger) RecordQuarantine(q QuarantineEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindQuarantine, Quarantine: &q})
}

// RecordProbe appends a promoted probe verdict.
func (l *Ledger) RecordProbe(p ProbeEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindProbe, Probe: &p})
}

// RecordRound appends a stream round fold. Volumes are copied.
func (l *Ledger) RecordRound(r RoundEvent) {
	if l == nil {
		return
	}
	r.Volumes = append([]float64(nil), r.Volumes...)
	l.append(Event{Kind: KindRound, Round: &r})
}

// RecordReconfig appends a reconfiguration decision.
func (l *Ledger) RecordReconfig(r ReconfigEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindReconfig, Reconfig: &r})
}

// RecordVerdict appends an attribution verdict. Slices are copied.
func (l *Ledger) RecordVerdict(v VerdictEvent) {
	if l == nil {
		return
	}
	v.Candidates = append([]int(nil), v.Candidates...)
	v.Assign = append([]int32(nil), v.Assign...)
	l.RecordVerdictShared(v)
}

// RecordVerdictShared is RecordVerdict without the defensive copies: the
// ledger retains the caller's slices, so the caller must never mutate
// them afterwards.
func (l *Ledger) RecordVerdictShared(v VerdictEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindVerdict, Verdict: &v})
}

// RecordMembership appends a sharded-ingest membership transition.
func (l *Ledger) RecordMembership(m MembershipEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindMembership, Membership: &m})
}

// RecordFailover appends a controller leadership transition.
func (l *Ledger) RecordFailover(f FailoverEvent) {
	if l == nil {
		return
	}
	l.append(Event{Kind: KindFailover, Failover: &f})
}
