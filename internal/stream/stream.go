// Package stream is the live attribution pipeline: it turns the repo's
// one-shot batch localization (core.Campaign → clusters → report) into
// the closed loop the paper's operational story describes (§I, §V-C) —
// an origin AS localizing spoofers *while an attack is in progress*.
//
// The loop has two halves and each is a type. Intake counts: each
// per-packet event tapped from the amp honeypot is added, on the
// goroutine that taps it, to the per-link round counters of one of N
// counter shards under that shard's lock, and readers of the round sum
// the shards — the event itself is copied nowhere. Evaluator decides: it
// folds a round into a sched.Loop (an incremental localizer and cluster
// partition), and when the volume-ranked top candidate cluster still
// exceeds the split threshold the loop's greedy step picks the next
// announcement configuration. One round protocol joins them wherever
// they run: the decide side reads a round with Intake.HarvestRound,
// folds it with Evaluator.Fold and starts the next with
// Intake.AdvanceEpoch, which deploys the chosen configuration through a
// callback (in cmd/spooftrackd, amp.Border.SetCatchments). Pipeline runs
// that protocol in one process; internal/shard's controller runs it over
// shard nodes in others.
//
// No queue, no loss: Ingest counts in place, so there is nothing to
// overflow and no event to drop; the longest it waits is one read of
// its shard. Close folds the final round, and only then returns.
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
// announcement. The table belongs to the intake, which refreshes it in
// place for its next deploy, so it is valid only during the call and
// the callee must not change it; one that keeps it must copy it
// (amp.Border.SetCatchments does). It
// is called from whichever goroutine ends a round (Intake.AdvanceEpoch;
// once from New), with the intake's deploy lock held, so one intake's
// deploys never overlap, and in a Pipeline with the lock its readers
// take held too, so it must not call back into the intake or the
// pipeline.
type DeployFunc func(cfgIdx int, table map[uint32]uint8)

// Config tunes the pipeline.
type Config struct {
	// Workers is the number of counter shards concurrent producers are
	// spread across (default min(GOMAXPROCS, 8)); no goroutine runs per
	// shard.
	Workers int
	// FlushInterval is only the base of EvalInterval's default (default
	// 100ms).
	FlushInterval time.Duration
	// EvalInterval is a Pipeline's evaluation cadence (default
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
// (wire it as an amp tap), stop with Close. Its control goroutine ticks
// every EvalInterval and is a client of the intake's round protocol, as
// a shard controller is: it copies out a round with the harvest behind
// HarvestRound, folds it with Evaluator.Fold and starts the next one
// with Intake.AdvanceEpoch. It does not expose those calls: only the
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
	// Ingest never takes it.
	mu      sync.Mutex
	eval    *Evaluator
	history []RoundRecord
	started time.Time // when the current round started

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates the attribution input, deploys the initial
// configuration, and starts the control loop.
func New(attr Attribution, cfg Config) (*Pipeline, error) {
	in, err := NewIntake(attr, cfg)
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
		stop:    make(chan struct{}),
	}
	p.eval.OpenLedger(cfg.Ledger)
	p.wg.Add(1)
	go p.run()
	return p, nil
}

// run is the control goroutine: it evaluates every EvalInterval until
// Close.
func (p *Pipeline) run() {
	defer p.wg.Done()
	csp := p.in.span.ChildTrack("stream.controller")
	defer csp.End()
	t := time.NewTicker(p.in.cfg.EvalInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.evaluate(false, csp)
		}
	}
}

// Ingest feeds one per-packet event into the pipeline (Intake.Ingest).
func (p *Pipeline) Ingest(ev amp.Event) bool { return p.in.Ingest(ev) }

// Dropped is always 0: the intake counts every event it accepts. It
// stays for the benchmark's drop check, its only reader.
func (p *Pipeline) Dropped() int64 { return 0 }

// TotalEvents returns how many events the pipeline has counted so far.
func (p *Pipeline) TotalEvents() int64 { return p.in.TotalEvents() }

// Close stops intake, shuts the control loop down, and folds the final
// round into the localizer. It is the drain-then-flush half of graceful
// shutdown: stop producing events (close the honeypot or detach the tap)
// before calling it. Close is idempotent and safe for concurrent
// callers: exactly one caller runs the shutdown, the rest wait for it to
// finish.
func (p *Pipeline) Close() {
	p.in.shutdown(func() {
		close(p.stop)
		p.wg.Wait()
		p.evaluate(true, p.in.span)
	})
}
