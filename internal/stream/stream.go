// Package stream is the live attribution pipeline: it turns the repo's
// one-shot batch localization (core.Campaign → clusters → report) into
// the closed loop the paper's operational story describes (§I, §V-C) —
// an origin AS localizing spoofers *while an attack is in progress*.
//
// The loop has two halves and each is a type. Intake counts: per-packet
// events tapped from the amp honeypot are sharded across N worker
// goroutines, appended under a per-shard lock into fixed slabs of
// BatchSize events and handed off a full slab at a time — one channel
// operation per slab, not per event; workers accumulate batched per-link
// counters and flush them into shared round state by count or tick,
// taking a partly filled slab on the tick. Evaluator decides: it folds a
// round into a sched.Loop (an incremental localizer and cluster
// partition), and when the volume-ranked top candidate
// cluster still exceeds the split threshold the loop's greedy step picks
// the next announcement configuration. One round protocol joins them
// wherever they run: the decide side completes a round with Intake.Cut,
// reads it with Intake.HarvestRound, folds it with Evaluator.Fold and
// starts the next with Intake.AdvanceEpoch, which deploys the chosen
// configuration through a callback (in cmd/spooftrackd,
// amp.Border.SetCatchments). Pipeline runs that protocol in one process;
// internal/shard's controller runs it over shard nodes in others.
//
// Backpressure, not loss: Ingest blocks when a shard has no free slab,
// so a slow consumer stalls the producer instead of silently dropping
// events. Close drains every slab, flushes outstanding batches, folds
// the final round, and only then returns.
package stream

import (
	"runtime"
	"sync"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/provenance"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
)

// Attribution is the precomputed offline knowledge the live loop runs
// against: the campaign's measured catchment matrix (§V-C — "deploy
// configurations whose catchments were measured beforehand").
type Attribution struct {
	// Catchments[c][k] is the catchment of source k under configuration
	// c (bgp.NoLink when unobserved).
	Catchments [][]bgp.LinkID
	// SourceASNs[k] is the ASN of source k, for tables and reports.
	SourceASNs []topo.ASN
	// NumLinks is the number of peering links (sizes per-link counters).
	NumLinks int
	// InitialConfig is the configuration deployed when the pipeline
	// starts (usually 0, the baseline anycast announcement).
	InitialConfig int
}

// DeployFunc applies configuration cfgIdx: table maps each true source
// ASN to the ingress link its traffic enters on under the new
// announcement. Every call gets a new table that nothing else holds, so
// the callee may keep it (amp.Border.SetCatchments does). It is called
// from whichever goroutine ends a round (Intake.AdvanceEpoch; once from
// New), in a Pipeline with the lock its readers take held, so it must
// not call back into the pipeline.
type DeployFunc func(cfgIdx int, table map[uint32]uint8)

// Config tunes the pipeline.
type Config struct {
	// Workers is the number of shard goroutines (default min(GOMAXPROCS, 8)).
	Workers int
	// QueueDepth is the queued events per shard, in BatchSize slabs, at
	// least two (smaller slabs when QueueDepth < 2×BatchSize); default
	// 1024. The slabs are allocated once, when the intake starts.
	QueueDepth int
	// BatchSize flushes a worker's local counters after this many
	// events (default 256).
	BatchSize int
	// FlushInterval flushes idle workers' partial batches (default 100ms).
	FlushInterval time.Duration
	// EvalInterval is the controller's evaluation cadence (default
	// 2×FlushInterval).
	EvalInterval time.Duration
	// MinRoundPackets is the volume a round must accumulate before the
	// controller acts on it (default DefaultMinRoundPackets).
	MinRoundPackets int64
	// Settle ignores events observed within this duration after a
	// reconfiguration for round accounting (they still count toward
	// totals): packets stamped under the previous catchment table may
	// be in flight, the loopback analogue of BGP convergence delay.
	Settle time.Duration
	// Deploy applies a configuration; nil means catchment switches are
	// tracked but not materialized (useful in tests feeding Ingest
	// directly).
	Deploy DeployFunc
	// Shed switches intake from backpressure to overload shedding: when
	// a shard's queue is full, Ingest drops the event instead of
	// blocking, counts it (stream_dropped_total), and raises the
	// pipeline's degraded flag. The controller clears the flag once
	// queues drain and no further drops occur. Use when the tap must
	// never stall the packet path (spooftrackd -shed).
	Shed bool
	// DegradedRecovery, if non-nil, is an extra gate on clearing the
	// degraded flag: the controller still requires drained queues and a
	// quiet drop counter, but additionally asks this callback before
	// declaring the overload over. Wire it to metric history (the tsdb
	// engine) so recovery means "no shedding for a whole window", not
	// "no shedding since the last tick" — a flapping overload then holds
	// the flag instead of strobing it. Called from the controller outside
	// the pipeline lock; must not call back into the pipeline.
	DegradedRecovery func() bool
	// Eval is the decide half: split threshold, quarantine mask and
	// re-measurement hints, for whichever Evaluator folds the rounds.
	Eval EvalParams
	// Ledger, if non-nil, records every round fold, reconfiguration
	// decision (with the candidate set it beat), and verdict into the
	// decision-provenance ledger. A nil ledger is provenance-off and
	// costs one nil check per fold (internal/trace's disabled pattern).
	Ledger *provenance.Ledger
	// Metrics instruments the pipeline (nil = a private registry).
	Metrics *metrics.Registry
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 2 * c.FlushInterval
	}
	if c.MinRoundPackets <= 0 {
		c.MinRoundPackets = DefaultMinRoundPackets
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
}

// RoundRecord is one completed round: the configuration that was
// deployed, what the honeypot measured under it, and the attribution
// state after folding it in.
type RoundRecord struct {
	Config      int       `json:"config"`
	Started     time.Time `json:"started"`
	Ended       time.Time `json:"ended"`
	Packets     int64     `json:"packets"`
	Bytes       int64     `json:"bytes"`
	NumClusters int       `json:"num_clusters"`
	MeanSize    float64   `json:"mean_cluster_size"`
	Candidates  int       `json:"candidates"`
}

// Pipeline is the running live-attribution loop on one node: an Intake
// plus the local decide loop over it. Create with New, feed with Ingest
// (wire it as an amp tap), stop with Close. Its control goroutine is a
// client of the intake's round protocol, as a shard controller is: it
// completes a round with Intake.Cut, copies it out with the harvest
// behind HarvestRound, folds it with Evaluator.Fold and starts the next
// one with Intake.AdvanceEpoch. It does not expose those calls: only the
// local fold may take a Pipeline's round.
type Pipeline struct {
	in *Intake

	// round is the control goroutine's copy of the intake's round; only
	// it, and Close's final fold after it has stopped, harvest into it.
	round Harvest

	// mu guards the decide half. A fold holds it from the Evaluator step
	// to the AdvanceEpoch that ends the round, so whoever reads the fold
	// finds the intake already counting the next round; the Eval
	// callbacks and Deploy therefore run under it, as they run under the
	// shard controller's lock, and must not call back into the pipeline.
	// Worker flushes never take it.
	mu      sync.Mutex
	eval    *Evaluator
	history []RoundRecord
	started time.Time // when the current round started
}

// New validates the attribution input, deploys the initial
// configuration, and starts the workers and the control loop.
func New(attr Attribution, cfg Config) (*Pipeline, error) {
	in, err := newIntake(attr, cfg)
	if err != nil {
		return nil, err
	}
	n := attr.NumLinks
	counts := make([]int64, 2*n)
	p := &Pipeline{
		in:      in,
		round:   Harvest{Pkts: counts[:n:n], Bytes: counts[n:]},
		eval:    NewEvaluator(attr, cfg.Eval),
		started: in.start,
	}
	p.eval.OpenLedger(cfg.Ledger)
	in.run(func(parent *trace.Span) { p.evaluate(false, parent) })
	return p, nil
}

// Ingest feeds one per-packet event into the pipeline (Intake.Ingest).
func (p *Pipeline) Ingest(ev amp.Event) bool { return p.in.Ingest(ev) }

// Degraded reports whether the pipeline is shedding load (Intake.Degraded).
func (p *Pipeline) Degraded() bool { return p.in.Degraded() }

// Dropped returns how many events overload shedding has discarded.
func (p *Pipeline) Dropped() int64 { return p.in.Dropped() }

// TotalEvents returns how many events have been flushed into the shared
// state so far.
func (p *Pipeline) TotalEvents() int64 { return p.in.TotalEvents() }

// Close stops intake, drains and flushes every shard, folds the final
// round into the localizer, and shuts the control loop down. It is the
// drain-then-flush half of graceful shutdown: stop producing events
// (close the honeypot or detach the tap) before calling it. Close is
// idempotent and safe for concurrent callers: exactly one caller runs
// the shutdown, the rest wait for it to finish.
func (p *Pipeline) Close() {
	p.in.shutdown(func() { p.evaluate(true, p.in.span) })
}
