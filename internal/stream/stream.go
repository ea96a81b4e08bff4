// Package stream is the live attribution pipeline: it turns the repo's
// one-shot batch localization (core.Campaign → clusters → report) into
// the closed loop the paper's operational story describes (§I, §V-C) —
// an origin AS localizing spoofers *while an attack is in progress*.
//
// Per-packet events tapped from the amp honeypot are sharded across N
// worker goroutines over bounded channels; workers accumulate batched
// per-link and per-victim counters and flush them into shared round
// state by count or tick. A controller goroutine periodically folds the
// current round into an incremental localizer (spoof) and cluster
// partition (cluster); when the volume-ranked top candidate cluster
// still exceeds the split threshold, it asks the greedy scheduler
// (sched.NextGreedyVolume) for the next announcement configuration and
// applies the resulting catchment split online through a deploy
// callback — in cmd/spooftrackd, amp.Border.SetCatchments.
//
// Backpressure, not loss: Ingest blocks when a shard's queue is full,
// so a slow consumer stalls the producer instead of silently dropping
// events. Close drains every queue, flushes outstanding batches, folds
// the final round, and only then returns.
package stream

import (
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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
// announcement. It is called from the controller goroutine (and once
// from New) and must not call back into the pipeline.
type DeployFunc func(cfgIdx int, table map[uint32]uint8)

// Config tunes the pipeline.
type Config struct {
	// Workers is the number of shard goroutines (default min(GOMAXPROCS, 8)).
	Workers int
	// QueueDepth bounds each shard's event channel (default 1024).
	QueueDepth int
	// BatchSize flushes a worker's local counters after this many
	// events (default 256).
	BatchSize int
	// FlushInterval flushes idle workers' partial batches (default 100ms).
	FlushInterval time.Duration
	// EvalInterval is the controller's evaluation cadence (default
	// 2×FlushInterval).
	EvalInterval time.Duration
	// SplitThreshold: reconfigure while the top volume-ranked candidate
	// cluster holds more than this many sources (default 1 — drive to
	// singletons).
	SplitThreshold int
	// MinRoundPackets is the volume a round must accumulate before the
	// controller acts on it (default 50) — acting on a near-empty round
	// would eliminate every quiet source.
	MinRoundPackets int64
	// MaxMisses is the localization tolerance (spoof.LocalizeTolerant);
	// 0 is the paper's exact correlation.
	MaxMisses int
	// NoiseFloor is the fraction of a round's total volume below which
	// a link counts as silent when folding the round — absorbs packets
	// straggling across a reconfiguration under the old catchment
	// table. Default 0.02; negative disables.
	NoiseFloor float64
	// MaxOnlineConfigs caps how many configurations the loop may deploy
	// beyond the initial one (0 = no cap).
	MaxOnlineConfigs int
	// Settle ignores events observed within this duration after a
	// reconfiguration for round accounting (they still count toward
	// totals): packets stamped under the previous catchment table may
	// be in flight, the loopback analogue of BGP convergence delay.
	Settle time.Duration
	// Deploy applies a configuration; nil means catchment switches are
	// tracked but not materialized (useful in tests feeding Ingest
	// directly).
	Deploy DeployFunc
	// Relay runs the pipeline as a sharded-ingest relay (internal/shard):
	// workers still batch and flush per-link round counters, but the
	// local controller never folds or deploys — a remote controller
	// harvests the counters (HarvestRound) and advances epochs
	// (AdvanceEpoch) instead. Overload shedding, degraded recovery, and
	// queue metrics keep working; localization state stays empty.
	Relay bool
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
	// Blocked, if non-nil, is consulted at each evaluation for the
	// per-configuration quarantine mask (nil = nothing blocked): blocked
	// configurations are routed around when picking the next deployment,
	// as if used, but become eligible again once unblocked. Wire it to
	// sched.QuarantineMask over the platform's link health.
	Blocked func() []bool
	// Remeasure, if non-nil, is consulted at each evaluation for
	// re-measurement hints: source positions whose evidence channels
	// conflict (probe.Audit's conflict ASes mapped to campaign source
	// positions). When a round ends without a split-driven deployment,
	// the controller deploys the unused configuration that re-observes
	// the most hinted sources (sched.NextRemeasure). Like Blocked, it is
	// called from the controller outside the pipeline lock and must not
	// call back into the pipeline.
	Remeasure func() []int
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
	if c.SplitThreshold <= 0 {
		c.SplitThreshold = 1
	}
	if c.MinRoundPackets <= 0 {
		c.MinRoundPackets = 50
	}
	// NoiseFloor is left as-is: EvalParams.setDefaults resolves the
	// 0-means-default / negative-means-disabled convention, so the
	// Pipeline and the sharded controller resolve it identically.
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
	Volumes     []float64 `json:"-"`
	NumClusters int       `json:"num_clusters"`
	MeanSize    float64   `json:"mean_cluster_size"`
	Candidates  int       `json:"candidates"`
}

// Pipeline is the running live-attribution loop. Create with New, feed
// with Ingest (wire it as an amp tap), stop with Close.
type Pipeline struct {
	cfg  Config
	attr Attribution

	shards []chan amp.Event
	wg     sync.WaitGroup
	stop   chan struct{}

	intakeMu  sync.RWMutex
	closed    bool
	closeOnce sync.Once

	// shed is Config.Shed, copied for the hot path (one branch when off).
	// droppedN counts shed events; degraded is raised on any drop and
	// cleared by the controller once queues drain with no new drops.
	shed     bool
	droppedN atomic.Int64
	degraded atomic.Bool

	// settleUntil is the unix-nano time before which events are
	// excluded from round accounting (read on the hot path).
	settleUntil atomic.Int64
	// epoch mirrors loopState.epoch for lock-free reads on the hot
	// path: it increments at every round fold, and a worker batch
	// flushed under a different epoch than it was accumulated in is
	// excluded from round counters (its round has already been folded).
	epoch atomic.Int64

	mu sync.Mutex
	st loopState

	// metrics (resolved once; hot-path friendly)
	mEvents    *metrics.Counter
	mBytes     *metrics.Counter
	mDropped   *metrics.Counter
	mBatches   *metrics.Counter
	mRounds    *metrics.Counter
	mReconfig  *metrics.Counter
	mRemeasure *metrics.Counter
	mSettle    *metrics.Counter
	mEvals     *metrics.Counter
	mClusters  *metrics.Gauge
	mCands     *metrics.Gauge
	mMeanSize  *metrics.Gauge
	mQueue     *metrics.Gauge
	mWater     *metrics.Gauge
	hBatch     *metrics.Histogram
	hEval      *metrics.Histogram
	hLag       *metrics.Histogram

	// labeled vectors: per-link children are resolved once at New into
	// dense slices (the hot path indexes, never formats or hashes);
	// per-shard children are resolved once per worker.
	linkPktC      []*metrics.Counter
	linkByteC     []*metrics.Counter
	vShardEvents  *metrics.CounterVec
	vShardBatches *metrics.CounterVec

	// span is the pipeline's root trace span (nil when tracing is off at
	// construction); workers and the controller hang their tracks off it.
	span *trace.Span

	start time.Time
}

// loopState is the controller-owned attribution state, guarded by
// Pipeline.mu (workers touch it only inside flush).
type loopState struct {
	epoch      int64
	eval       *Evaluator
	roundPkts  []int64
	roundBytes []int64
	roundStart time.Time
	bySource   map[netip.Addr]int64
	total      int64
	totalBytes int64
	settled    int64 // events excluded from rounds while settling
	history    []RoundRecord
	// lastDropped is the shed counter at the previous evaluation; the
	// degraded flag clears when it stops moving and queues are drained.
	lastDropped int64
}

// New validates the attribution input, deploys the initial
// configuration, and starts the workers and the control loop.
func New(attr Attribution, cfg Config) (*Pipeline, error) {
	if len(attr.Catchments) == 0 {
		return nil, fmt.Errorf("stream: no configurations")
	}
	n := len(attr.Catchments[0])
	for c, row := range attr.Catchments {
		if len(row) != n {
			return nil, fmt.Errorf("stream: config %d has %d catchments, config 0 has %d", c, len(row), n)
		}
	}
	if len(attr.SourceASNs) != n {
		return nil, fmt.Errorf("stream: %d source ASNs for %d sources", len(attr.SourceASNs), n)
	}
	if attr.NumLinks <= 0 {
		return nil, fmt.Errorf("stream: NumLinks must be positive")
	}
	if attr.InitialConfig < 0 || attr.InitialConfig >= len(attr.Catchments) {
		return nil, fmt.Errorf("stream: initial config %d out of range", attr.InitialConfig)
	}
	cfg.setDefaults()

	p := &Pipeline{cfg: cfg, attr: attr, stop: make(chan struct{}), start: time.Now(), shed: cfg.Shed}
	reg := cfg.Metrics
	p.mEvents = reg.Counter("stream_events_total")
	p.mBytes = reg.Counter("stream_bytes_total")
	p.mDropped = reg.Counter("stream_dropped_total")
	p.mBatches = reg.Counter("stream_batches_total")
	p.mRounds = reg.Counter("stream_rounds_total")
	p.mReconfig = reg.Counter("stream_reconfigs_total")
	p.mRemeasure = reg.Counter("stream_remeasure_total")
	p.mSettle = reg.Counter("stream_settle_excluded_total")
	p.mEvals = reg.Counter("stream_evals_total")
	p.mClusters = reg.Gauge("stream_clusters")
	p.mCands = reg.Gauge("stream_candidates")
	p.mMeanSize = reg.Gauge("stream_mean_cluster_size")
	p.mQueue = reg.Gauge("stream_queue_depth")
	p.hBatch = reg.Histogram("stream_batch_events", 1, 4, 16, 64, 256, 1024, 4096)
	p.hEval = reg.Histogram("stream_eval_seconds", 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1)
	p.hLag = reg.Histogram("stream_flush_lag_seconds", 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1, 5)
	p.mWater = reg.Gauge("stream_watermark_unix_s")
	vLinkPkts := reg.CounterVec("stream_link_packets_total", "link")
	vLinkBytes := reg.CounterVec("stream_link_bytes_total", "link")
	p.vShardEvents = reg.CounterVec("stream_shard_events_total", "shard")
	p.vShardBatches = reg.CounterVec("stream_shard_batches_total", "shard")
	p.linkPktC = make([]*metrics.Counter, attr.NumLinks)
	p.linkByteC = make([]*metrics.Counter, attr.NumLinks)
	for l := 0; l < attr.NumLinks; l++ {
		lbl := strconv.Itoa(l)
		p.linkPktC[l] = vLinkPkts.With(lbl)
		p.linkByteC[l] = vLinkBytes.With(lbl)
	}

	p.span = trace.Start("stream.pipeline")
	if p.span != nil {
		p.span.Set(
			trace.Int("workers", int64(cfg.Workers)),
			trace.Int("links", int64(attr.NumLinks)),
			trace.Int("sources", int64(n)),
		)
	}

	p.st = loopState{
		eval: NewEvaluator(attr, EvalParams{
			SplitThreshold:   cfg.SplitThreshold,
			MaxMisses:        cfg.MaxMisses,
			NoiseFloor:       cfg.NoiseFloor,
			MaxOnlineConfigs: cfg.MaxOnlineConfigs,
		}),
		roundPkts:  make([]int64, attr.NumLinks),
		roundBytes: make([]int64, attr.NumLinks),
		roundStart: time.Now(),
		bySource:   make(map[netip.Addr]int64),
	}
	p.mClusters.Set(1)
	p.mCands.Set(float64(n))
	p.mMeanSize.Set(float64(n))

	p.st.eval.OpenLedger(cfg.Ledger)
	p.deploy(attr.InitialConfig)

	p.shards = make([]chan amp.Event, cfg.Workers)
	for i := range p.shards {
		p.shards[i] = make(chan amp.Event, cfg.QueueDepth)
		p.wg.Add(1)
		go p.worker(i, p.shards[i])
	}
	p.wg.Add(1)
	go p.controller()
	return p, nil
}

func allSources(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// deploy materializes configuration cfgIdx through the Deploy callback,
// rendered as a border catchment table. Call it outside p.mu.
func (p *Pipeline) deploy(cfgIdx int) {
	if p.cfg.Deploy == nil {
		return
	}
	row := p.attr.Catchments[cfgIdx]
	t := make(map[uint32]uint8, len(row))
	for k, l := range row {
		if l != bgp.NoLink {
			t[uint32(p.attr.SourceASNs[k])] = uint8(l)
		}
	}
	p.cfg.Deploy(cfgIdx, t)
}

// Ingest feeds one per-packet event into the pipeline. By default a
// full shard queue blocks the caller (backpressure instead of loss);
// with Config.Shed the event is dropped instead, counted, and the
// pipeline marked degraded. It returns false once the pipeline is
// closed. Wire it as an amp tap:
//
//	hp.SetTap(func(ev amp.Event) { p.Ingest(ev) })
func (p *Pipeline) Ingest(ev amp.Event) bool {
	p.intakeMu.RLock()
	defer p.intakeMu.RUnlock()
	if p.closed {
		return false
	}
	ch := p.shards[shardOf(ev, len(p.shards))]
	if p.shed {
		select {
		case ch <- ev:
		default:
			// Overload: shed rather than stall the packet path. The event
			// is acknowledged (the pipeline is open) but unaccounted.
			p.droppedN.Add(1)
			p.mDropped.Inc()
			p.degraded.Store(true)
		}
		return true
	}
	ch <- ev
	return true
}

// Degraded reports whether the pipeline is shedding load: at least one
// event was dropped since the controller last saw drained queues and a
// quiet drop counter. Surfaced through spooftrackd's /readyz.
func (p *Pipeline) Degraded() bool { return p.degraded.Load() }

// Dropped returns how many events overload shedding has discarded.
func (p *Pipeline) Dropped() int64 { return p.droppedN.Load() }

// shardOf spreads events across workers by FNV-1a over the spoofed
// source and ingress link, keeping any one flow on one worker.
func shardOf(ev amp.Event, n int) int {
	if n == 1 {
		return 0
	}
	h := uint32(2166136261)
	if ev.SpoofedSrc.Is4() {
		b := ev.SpoofedSrc.As4()
		for _, c := range b {
			h = (h ^ uint32(c)) * 16777619
		}
	}
	h = (h ^ uint32(ev.IngressLink)) * 16777619
	return int(h % uint32(n))
}

// batch is a worker's local accumulator: counters batched per link and
// per victim so the shared mutex is taken once per BatchSize events,
// not per packet.
type batch struct {
	epoch    int64
	events   int
	pkts     []int64
	bytes    []int64
	bySource map[netip.Addr]int64
	settled  int64
	total    int64
	totalB   int64
	// first/last are the event timestamps bounding the batch: at flush,
	// now-first is the stage lag (oldest unflushed event's age) and last
	// is the shard's watermark.
	first time.Time
	last  time.Time
	// shardEvents/shardBatches are the owning worker's pre-resolved
	// per-shard vector children, bumped once per flush (nil in tests
	// that build batches directly).
	shardEvents  *metrics.Counter
	shardBatches *metrics.Counter
}

func newBatch(links int) *batch {
	return &batch{
		pkts:     make([]int64, links),
		bytes:    make([]int64, links),
		bySource: make(map[netip.Addr]int64),
	}
}

func (b *batch) reset() {
	b.events = 0
	for i := range b.pkts {
		b.pkts[i], b.bytes[i] = 0, 0
	}
	clear(b.bySource)
	b.settled, b.total, b.totalB = 0, 0, 0
}

func (p *Pipeline) worker(shard int, ch chan amp.Event) {
	defer p.wg.Done()
	var wsp *trace.Span
	if p.span != nil {
		// Each worker gets its own track so concurrent flush spans render
		// as parallel flame-chart rows.
		wsp = p.span.ChildTrack("stream.worker")
		wsp.Set(trace.Int("shard", int64(shard)))
		defer wsp.End()
	}
	ticker := time.NewTicker(p.cfg.FlushInterval)
	defer ticker.Stop()
	b := newBatch(p.attr.NumLinks)
	shardLbl := strconv.Itoa(shard)
	b.shardEvents = p.vShardEvents.With(shardLbl)
	b.shardBatches = p.vShardBatches.With(shardLbl)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				p.flush(b, wsp)
				return
			}
			p.accumulate(b, ev, wsp)
			if b.events >= p.cfg.BatchSize {
				p.flush(b, wsp)
			}
		case <-ticker.C:
			if b.events > 0 {
				p.flush(b, wsp)
			}
		}
	}
}

func (p *Pipeline) accumulate(b *batch, ev amp.Event, wsp *trace.Span) {
	if e := p.epoch.Load(); b.events == 0 {
		b.epoch = e
	} else if b.epoch != e {
		// The round this batch belongs to has been folded; hand the
		// batch over before starting one in the new epoch.
		p.flush(b, wsp)
		b.epoch = e
	}
	b.events++
	if b.events == 1 {
		b.first = ev.Time
	}
	b.last = ev.Time
	b.total++
	b.totalB += int64(ev.WireLen)
	if su := p.settleUntil.Load(); su != 0 && ev.Time.UnixNano() < su {
		b.settled++
		return
	}
	if int(ev.IngressLink) < len(b.pkts) {
		b.pkts[ev.IngressLink]++
		b.bytes[ev.IngressLink] += int64(ev.WireLen)
	}
	b.bySource[ev.SpoofedSrc]++
}

// flush merges a worker batch into the shared round state.
func (p *Pipeline) flush(b *batch, wsp *trace.Span) {
	if b.events == 0 {
		return
	}
	var fsp *trace.Span
	if wsp != nil {
		fsp = wsp.Child("stream.flush")
	}
	excluded := b.settled
	p.mu.Lock()
	st := &p.st
	if b.epoch == st.epoch {
		for l := range b.pkts {
			st.roundPkts[l] += b.pkts[l]
			st.roundBytes[l] += b.bytes[l]
		}
	} else {
		// Stale batch: accumulated before the last fold, so its round
		// no longer exists. Keep it out of the new round's counters.
		for _, n := range b.pkts {
			excluded += n
		}
	}
	for src, n := range b.bySource {
		st.bySource[src] += n
	}
	st.total += b.total
	st.totalBytes += b.totalB
	st.settled += excluded
	p.mu.Unlock()

	p.mEvents.Add(b.total)
	p.mBytes.Add(b.totalB)
	p.mSettle.Add(excluded)
	p.mBatches.Inc()
	for l, n := range b.pkts {
		if n != 0 {
			p.linkPktC[l].Add(n)
			p.linkByteC[l].Add(b.bytes[l])
		}
	}
	if b.shardEvents != nil {
		b.shardEvents.Add(b.total)
		b.shardBatches.Inc()
	}
	p.hBatch.Observe(float64(b.events))
	// Stage lag is the age of the batch's oldest event at flush time; the
	// watermark is the newest event time this shard has pushed downstream.
	lag := time.Since(b.first)
	watermark := float64(b.last.UnixNano()) / 1e9
	p.hLag.Observe(lag.Seconds())
	p.mWater.Set(watermark)
	if fsp != nil {
		fsp.Count("events", int64(b.events))
		fsp.Count("excluded", excluded)
		fsp.Set(
			trace.Float("lag_s", lag.Seconds()),
			trace.Float("watermark_unix_s", watermark),
		)
		fsp.End()
	}
	b.reset()
}

// Close stops intake, drains and flushes every shard, folds the final
// round into the localizer, and shuts the control loop down. It is the
// drain-then-flush half of graceful shutdown: stop producing events
// (close the honeypot or detach the tap) before calling it. Close is
// idempotent and safe for concurrent callers: exactly one caller runs
// the shutdown, the rest wait for it to finish.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		p.intakeMu.Lock()
		p.closed = true
		p.intakeMu.Unlock()

		close(p.stop)
		for _, ch := range p.shards {
			close(ch)
		}
		p.wg.Wait()
		p.evaluate(true, p.span)
		p.span.End()
	})
}

// TotalEvents returns how many events have been flushed into the shared
// state so far.
func (p *Pipeline) TotalEvents() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st.total
}
