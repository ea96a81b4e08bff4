package stream

import (
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
)

// Intake is the count half of the loop (§III-B): it turns tapped events
// into per-link round counters under the deployed configuration and
// decides nothing. Events are sharded across worker goroutines over
// bounded channels; workers batch per-link and per-victim counters and
// flush them into the shared round by count or tick; a control goroutine
// ticks the overload-recovery bookkeeping. Whoever owns the decision
// reads the round and starts the next one: a Pipeline folds it locally
// under the same lock, a sharded-ingest controller (internal/shard)
// collects it with HarvestRound and answers with AdvanceEpoch.
type Intake struct {
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
	// cleared by the control goroutine once queues drain with no new
	// drops; lastDropped is that goroutine's view of droppedN one tick ago.
	shed        bool
	droppedN    atomic.Int64
	degraded    atomic.Bool
	lastDropped int64

	// settleUntil is the unix-nano time before which events are
	// excluded from round accounting (read on the hot path).
	settleUntil atomic.Int64
	// epoch mirrors roundState.epoch for lock-free reads on the hot
	// path: it changes whenever a round is taken, and a worker batch
	// flushed under a different epoch than it was accumulated in is
	// excluded from round counters (its round no longer exists).
	epoch atomic.Int64

	mu sync.Mutex
	st roundState

	// metrics (resolved once; hot-path friendly)
	mEvents  *metrics.Counter
	mBytes   *metrics.Counter
	mDropped *metrics.Counter
	mBatches *metrics.Counter
	mSettle  *metrics.Counter
	mEvals   *metrics.Counter
	mQueue   *metrics.Gauge
	mWater   *metrics.Gauge
	hBatch   *metrics.Histogram
	hLag     *metrics.Histogram

	// labeled vectors: per-link children are resolved once at New into
	// dense slices (the hot path indexes, never formats or hashes);
	// per-shard children are resolved once per worker.
	linkPktC      []*metrics.Counter
	linkByteC     []*metrics.Counter
	vShardEvents  *metrics.CounterVec
	vShardBatches *metrics.CounterVec

	// span is the root trace span (nil when tracing is off at
	// construction); workers and the control goroutine hang their tracks
	// off it.
	span *trace.Span

	start time.Time
}

// roundState is the shared accounting the workers flush into, guarded
// by Intake.mu.
type roundState struct {
	epoch int64
	// config is the configuration the round is measured under.
	config int
	// harvested is how many of the round's packets the last HarvestRound
	// of this epoch saw; what arrives after it can reach no fold.
	harvested  int64
	roundPkts  []int64
	roundBytes []int64
	roundStart time.Time
	bySource   map[netip.Addr]int64
	total      int64
	totalBytes int64
	settled    int64 // events excluded from every round
}

// NewIntake validates the attribution input, deploys the initial
// configuration, and starts the workers and the recovery tick. The
// decide-side fields of cfg (SplitThreshold, MinRoundPackets, Blocked,
// Remeasure, Ledger, …) are not consulted.
func NewIntake(attr Attribution, cfg Config) (*Intake, error) {
	in, err := newIntake(attr, cfg)
	if err != nil {
		return nil, err
	}
	in.run(func(*trace.Span) { in.tick() })
	return in, nil
}

func newIntake(attr Attribution, cfg Config) (*Intake, error) {
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
	if attr.NumLinks > bgp.MaxLinks {
		return nil, fmt.Errorf("stream: NumLinks %d exceeds the %d a link id can hold", attr.NumLinks, bgp.MaxLinks)
	}
	if attr.InitialConfig < 0 || attr.InitialConfig >= len(attr.Catchments) {
		return nil, fmt.Errorf("stream: initial config %d out of range", attr.InitialConfig)
	}
	cfg.setDefaults()

	in := &Intake{cfg: cfg, attr: attr, stop: make(chan struct{}), start: time.Now(), shed: cfg.Shed}
	reg := cfg.Metrics
	in.mEvents = reg.Counter("stream_events_total")
	in.mBytes = reg.Counter("stream_bytes_total")
	in.mDropped = reg.Counter("stream_dropped_total")
	in.mBatches = reg.Counter("stream_batches_total")
	in.mSettle = reg.Counter("stream_settle_excluded_total")
	in.mEvals = reg.Counter("stream_evals_total")
	in.mQueue = reg.Gauge("stream_queue_depth")
	in.hBatch = reg.Histogram("stream_batch_events", 1, 4, 16, 64, 256, 1024, 4096)
	in.hLag = reg.Histogram("stream_flush_lag_seconds", 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1, 5)
	in.mWater = reg.Gauge("stream_watermark_unix_s")
	vLinkPkts := reg.CounterVec("stream_link_packets_total", "link")
	vLinkBytes := reg.CounterVec("stream_link_bytes_total", "link")
	in.vShardEvents = reg.CounterVec("stream_shard_events_total", "shard")
	in.vShardBatches = reg.CounterVec("stream_shard_batches_total", "shard")
	in.linkPktC = make([]*metrics.Counter, attr.NumLinks)
	in.linkByteC = make([]*metrics.Counter, attr.NumLinks)
	for l := 0; l < attr.NumLinks; l++ {
		lbl := strconv.Itoa(l)
		in.linkPktC[l] = vLinkPkts.With(lbl)
		in.linkByteC[l] = vLinkBytes.With(lbl)
	}

	in.span = trace.Start("stream.pipeline")
	if in.span != nil {
		in.span.Set(
			trace.Int("workers", int64(cfg.Workers)),
			trace.Int("links", int64(attr.NumLinks)),
			trace.Int("sources", int64(n)),
		)
	}

	in.st = roundState{
		config:     attr.InitialConfig,
		roundPkts:  make([]int64, attr.NumLinks),
		roundBytes: make([]int64, attr.NumLinks),
		roundStart: time.Now(),
		bySource:   make(map[netip.Addr]int64),
	}
	return in, nil
}

// run deploys the initial configuration and starts the workers and the
// control goroutine, which calls tick every EvalInterval until Close.
func (in *Intake) run(tick func(parent *trace.Span)) {
	in.deploy(in.attr.InitialConfig)
	in.shards = make([]chan amp.Event, in.cfg.Workers)
	for i := range in.shards {
		in.shards[i] = make(chan amp.Event, in.cfg.QueueDepth)
		in.wg.Add(1)
		go in.worker(i, in.shards[i])
	}
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		var csp *trace.Span
		if in.span != nil {
			csp = in.span.ChildTrack("stream.controller")
			defer csp.End()
		}
		ticker := time.NewTicker(in.cfg.EvalInterval)
		defer ticker.Stop()
		for {
			select {
			case <-in.stop:
				return
			case <-ticker.C:
				tick(csp)
			}
		}
	}()
}

// tick is the overload-recovery bookkeeping: the degraded flag clears
// when no event was shed since the last tick, the queues have drained,
// and the recovery oracle (when configured) agrees the overload has
// passed. The oracle typically queries metric history and may take its
// own locks, so it is asked last, only while degraded, with nothing held.
func (in *Intake) tick() {
	in.mEvals.Inc()
	queued := 0
	for _, ch := range in.shards {
		queued += len(ch)
	}
	in.mQueue.Set(float64(queued))
	if d := in.droppedN.Load(); d != in.lastDropped {
		in.lastDropped = d
	} else if queued == 0 && in.degraded.Load() &&
		(in.cfg.DegradedRecovery == nil || in.cfg.DegradedRecovery()) {
		in.degraded.Store(false)
	}
}

// deploy materializes configuration cfgIdx through the Deploy callback,
// rendered as a border catchment table. Call it outside in.mu.
func (in *Intake) deploy(cfgIdx int) {
	if in.cfg.Deploy == nil {
		return
	}
	row := in.attr.Catchments[cfgIdx]
	t := make(map[uint32]uint8, len(row))
	for k, l := range row {
		if l != bgp.NoLink {
			t[uint32(in.attr.SourceASNs[k])] = uint8(l)
		}
	}
	in.cfg.Deploy(cfgIdx, t)
}

// Ingest feeds one per-packet event into the intake. By default a full
// shard queue blocks the caller (backpressure instead of loss); with
// Config.Shed the event is dropped instead, counted, and the intake
// marked degraded. It returns false once the intake is closed. Wire it
// as an amp tap:
//
//	hp.SetTap(func(ev amp.Event) { in.Ingest(ev) })
func (in *Intake) Ingest(ev amp.Event) bool {
	in.intakeMu.RLock()
	defer in.intakeMu.RUnlock()
	if in.closed {
		return false
	}
	ch := in.shards[shardOf(ev, len(in.shards))]
	if in.shed {
		select {
		case ch <- ev:
		default:
			// Overload: shed rather than stall the packet path. The event
			// is acknowledged (the intake is open) but unaccounted.
			in.droppedN.Add(1)
			in.mDropped.Inc()
			in.degraded.Store(true)
		}
		return true
	}
	ch <- ev
	return true
}

// Degraded reports whether the intake is shedding load: at least one
// event was dropped since the control goroutine last saw drained queues
// and a quiet drop counter. Surfaced through spooftrackd's /readyz.
func (in *Intake) Degraded() bool { return in.degraded.Load() }

// Dropped returns how many events overload shedding has discarded.
func (in *Intake) Dropped() int64 { return in.droppedN.Load() }

// Epoch returns the epoch the intake is currently accumulating under.
func (in *Intake) Epoch() int64 { return in.epoch.Load() }

// TotalEvents returns how many events have been flushed into the shared
// state so far.
func (in *Intake) TotalEvents() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st.total
}

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

func (in *Intake) worker(shard int, ch chan amp.Event) {
	defer in.wg.Done()
	var wsp *trace.Span
	if in.span != nil {
		// Each worker gets its own track so concurrent flush spans render
		// as parallel flame-chart rows.
		wsp = in.span.ChildTrack("stream.worker")
		wsp.Set(trace.Int("shard", int64(shard)))
		defer wsp.End()
	}
	ticker := time.NewTicker(in.cfg.FlushInterval)
	defer ticker.Stop()
	b := newBatch(in.attr.NumLinks)
	shardLbl := strconv.Itoa(shard)
	b.shardEvents = in.vShardEvents.With(shardLbl)
	b.shardBatches = in.vShardBatches.With(shardLbl)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				in.flush(b, wsp)
				return
			}
			in.accumulate(b, ev, wsp)
			if b.events >= in.cfg.BatchSize {
				in.flush(b, wsp)
			}
		case <-ticker.C:
			if b.events > 0 {
				in.flush(b, wsp)
			}
		}
	}
}

func (in *Intake) accumulate(b *batch, ev amp.Event, wsp *trace.Span) {
	if e := in.epoch.Load(); b.events == 0 {
		b.epoch = e
	} else if b.epoch != e {
		// The round this batch belongs to has been taken; hand the
		// batch over before starting one in the new epoch.
		in.flush(b, wsp)
		b.epoch = e
	}
	b.events++
	if b.events == 1 {
		b.first = ev.Time
	}
	b.last = ev.Time
	b.total++
	b.totalB += int64(ev.WireLen)
	if su := in.settleUntil.Load(); su != 0 && ev.Time.UnixNano() < su {
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
func (in *Intake) flush(b *batch, wsp *trace.Span) {
	if b.events == 0 {
		return
	}
	var fsp *trace.Span
	if wsp != nil {
		fsp = wsp.Child("stream.flush")
	}
	excluded := b.settled
	in.mu.Lock()
	st := &in.st
	if b.epoch == st.epoch {
		for l := range b.pkts {
			st.roundPkts[l] += b.pkts[l]
			st.roundBytes[l] += b.bytes[l]
		}
	} else {
		// Stale batch: accumulated before the last advance, so its round
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
	in.mu.Unlock()

	in.mEvents.Add(b.total)
	in.mBytes.Add(b.totalB)
	in.mSettle.Add(excluded)
	in.mBatches.Inc()
	for l, n := range b.pkts {
		if n != 0 {
			in.linkPktC[l].Add(n)
			in.linkByteC[l].Add(b.bytes[l])
		}
	}
	if b.shardEvents != nil {
		b.shardEvents.Add(b.total)
		b.shardBatches.Inc()
	}
	in.hBatch.Observe(float64(b.events))
	// Stage lag is the age of the batch's oldest event at flush time; the
	// watermark is the newest event time this shard has pushed downstream.
	lag := time.Since(b.first)
	watermark := float64(b.last.UnixNano()) / 1e9
	in.hLag.Observe(lag.Seconds())
	in.mWater.Set(watermark)
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

// roundPacketsLocked sums the current round's per-link packet counters.
func (in *Intake) roundPacketsLocked() int64 {
	total := int64(0)
	for _, n := range in.st.roundPkts {
		total += n
	}
	return total
}

// advanceLocked starts the round accumulated under the given epoch:
// zero the round counters, publish the epoch, and — when deploy >= 0, a
// new configuration about to be deployed — arm the settle window. The
// epoch bump invalidates worker batches accumulated before it — flushed
// late, they would otherwise leak the old round's per-link counts into
// the new one. The settle deadline is published before the caller drops
// in.mu so no event produced under the old configuration can observe a
// stale value; the caller calls in.deploy(deploy) after dropping it.
func (in *Intake) advanceLocked(epoch int64, deploy int) {
	st := &in.st
	for l := range st.roundPkts {
		st.roundPkts[l], st.roundBytes[l] = 0, 0
	}
	st.harvested = 0
	st.epoch = epoch
	in.epoch.Store(epoch)
	st.roundStart = time.Now()
	if deploy >= 0 {
		st.config = deploy
		if in.cfg.Settle > 0 {
			in.settleUntil.Store(time.Now().Add(in.cfg.Settle).UnixNano())
		}
	}
}

// Harvest is one intake's round-counter snapshot: the per-link
// packet/byte counters accumulated since the last epoch advance, tagged
// with the epoch and configuration they accumulated under. Harvesting
// does not consume the counters — the controller may collect the same
// epoch repeatedly (retries, failover re-collection) and only
// AdvanceEpoch resets them — so the snapshot a fold acts on is exactly
// the one that was collected. It is also everything an intake can say
// about itself (a shard's /status): counters, never a verdict.
type Harvest struct {
	Epoch      int64   `json:"epoch"`
	Config     int     `json:"config"`
	Pkts       []int64 `json:"pkts"`
	Bytes      []int64 `json:"bytes"`
	Total      int64   `json:"total"`
	TotalBytes int64   `json:"total_bytes"`
	Settled    int64   `json:"settled"`
	Degraded   bool    `json:"degraded"`
	Dropped    int64   `json:"dropped"`
}

func (in *Intake) harvestLocked() Harvest {
	st := &in.st
	return Harvest{
		Epoch:      st.epoch,
		Config:     st.config,
		Pkts:       append([]int64(nil), st.roundPkts...),
		Bytes:      append([]int64(nil), st.roundBytes...),
		Total:      st.total,
		TotalBytes: st.totalBytes,
		Settled:    st.settled,
		Degraded:   in.degraded.Load(),
		Dropped:    in.droppedN.Load(),
	}
}

// Status snapshots the current round's counters without marking them
// collected.
func (in *Intake) Status() Harvest {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.harvestLocked()
}

// HarvestRound snapshots the current round's counters for a controller
// that may fold them (the sharded-ingest Collect RPC lands here), and
// remembers how much of the round has now been seen.
func (in *Intake) HarvestRound() Harvest {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.st.harvested = in.roundPacketsLocked()
	return in.harvestLocked()
}

// AdvanceEpoch adopts a controller-decided epoch and configuration (the
// sharded-ingest controller's Apply RPC lands here). It resets the
// round counters, bumps the epoch — invalidating worker batches
// accumulated under the old one — arms the settle window, and deploys
// the configuration when it changed. Packets flushed into the round
// after its last harvest (collect→apply latency, RPC backoff, a round
// never collected at all) can reach no fold, so they are counted as
// settle-excluded rather than vanishing: total = folded + excluded
// holds on every shard. Re-applying the current (epoch, config) is an
// idempotent no-op, so a controller recovering from failover can
// re-broadcast its snapshot safely; an epoch older than the intake's is
// rejected (a stale controller must not rewind the shard).
func (in *Intake) AdvanceEpoch(epoch int64, cfgIdx int) error {
	if cfgIdx < 0 || cfgIdx >= len(in.attr.Catchments) {
		return fmt.Errorf("stream: advance to config %d out of range", cfgIdx)
	}
	in.mu.Lock()
	st := &in.st
	if epoch < st.epoch {
		cur := st.epoch
		in.mu.Unlock()
		return fmt.Errorf("stream: stale epoch %d (intake at %d)", epoch, cur)
	}
	if epoch == st.epoch && cfgIdx == st.config {
		in.mu.Unlock()
		return nil
	}
	residue := in.roundPacketsLocked() - st.harvested
	st.settled += residue
	deploy := -1
	if cfgIdx != st.config {
		deploy = cfgIdx
	}
	in.advanceLocked(epoch, deploy)
	in.mu.Unlock()
	in.mSettle.Add(residue)
	if deploy >= 0 {
		in.deploy(deploy)
	}
	return nil
}

// shutdown stops intake, then drains and flushes every shard and stops
// the control goroutine. It runs once; concurrent callers wait.
func (in *Intake) shutdown(after func()) {
	in.closeOnce.Do(func() {
		in.intakeMu.Lock()
		in.closed = true
		in.intakeMu.Unlock()

		close(in.stop)
		for _, ch := range in.shards {
			close(ch)
		}
		in.wg.Wait()
		after()
		in.span.End()
	})
}

// Close stops intake and drains and flushes every shard. Stop producing
// events (close the honeypot or detach the tap) before calling it. Close
// is idempotent and safe for concurrent callers: exactly one caller runs
// the shutdown, the rest wait for it to finish.
func (in *Intake) Close() { in.shutdown(func() {}) }
