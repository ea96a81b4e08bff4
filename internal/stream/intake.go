package stream

import (
	"fmt"
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
// decides nothing. Each event is counted on the goroutine that calls
// Ingest, into the per-link batch of its counter shard (Config.Workers
// of them), under that shard's lock; a shard's batch goes into the
// shared round when the round is read (HarvestRound, Status,
// TotalEvents, Cut, Close) and on every FlushInterval tick of the
// control goroutine. Locks are always taken shard first, then round.
// Whoever owns the decision drives one round protocol, whether it runs
// in this process (a Pipeline) or across the network (a sharded-ingest
// controller, internal/shard): Cut completes the round, HarvestRound
// reads it, and AdvanceEpoch — the only call that ends a round — starts
// the next.
type Intake struct {
	cfg  Config
	attr Attribution

	shards    []counterShard
	wg        sync.WaitGroup
	stop      chan struct{}
	closeOnce sync.Once

	// settleUntil is the unix-nano time before which events are
	// excluded from round accounting (read on the hot path).
	settleUntil atomic.Int64
	// epoch mirrors roundState.epoch for lock-free reads on the hot
	// path: it changes whenever a round is taken, and a shard batch
	// merged under a different epoch than it was counted in is excluded
	// from round counters (its round no longer exists).
	epoch atomic.Int64

	mu sync.Mutex
	st roundState

	// metrics (resolved once; hot-path friendly)
	mEvents  *metrics.Counter
	mBatches *metrics.Counter
	mSettle  *metrics.Counter
	hLag     *metrics.Histogram

	// span is the root trace span (nil when tracing is off at
	// construction); the control goroutine hangs its track off it.
	span *trace.Span

	start time.Time
}

// flushLagBounds are stream_flush_lag_seconds' bucket edges. A batch
// merges about one tick after its first event, so with the default
// 100 ms tick most lags sit just under or just past 0.1 s: the
// edges at 0.15, 0.2 and 0.3 keep a p99 among those few just past the
// tick from interpolating across all of (0.1, 0.5].
var flushLagBounds = []float64{1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1, 5}

// roundState is the shared accounting shard batches merge into, guarded
// by Intake.mu.
type roundState struct {
	epoch int64
	// config is the configuration the round is measured under.
	config int
	// harvested is how many of the round's packets the last harvest of
	// this epoch saw; what arrives after it can reach no fold.
	harvested  int64
	roundPkts  []int64
	roundBytes []int64
	total      int64
	totalBytes int64
	settled    int64 // events excluded from every round
}

// counterShard is one share of the intake's counting: the batch the
// producers Ingest routes here add to, under mu. closed rejects Ingest
// once shutdown has begun.
type counterShard struct {
	mu     sync.Mutex
	closed bool
	b      batch
}

// NewIntake validates the attribution input, deploys the initial
// configuration, and starts the control goroutine's merge tick. The
// decide-side fields of cfg (Eval, MinRoundPackets, Ledger) are not
// consulted.
func NewIntake(attr Attribution, cfg Config) (*Intake, error) {
	in, err := newIntake(attr, cfg)
	if err != nil {
		return nil, err
	}
	in.run(nil)
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

	in := &Intake{cfg: cfg, attr: attr, stop: make(chan struct{}), start: time.Now()}
	reg := cfg.Metrics
	in.mEvents = reg.Counter("stream_events_total")
	in.mBatches = reg.Counter("stream_batches_total")
	in.mSettle = reg.Counter("stream_settle_excluded_total")
	in.hLag = reg.Histogram("stream_flush_lag_seconds", flushLagBounds...)

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
	}
	in.shards = make([]counterShard, cfg.Workers)
	for i := range in.shards {
		in.shards[i].b = newBatch(attr.NumLinks)
	}
	return in, nil
}

// run deploys the initial configuration and starts the control
// goroutine: it merges every shard into the round each FlushInterval,
// and, when eval is non-nil, calls it every EvalInterval until Close.
// eval reads the round, which merges the shards too, so the merge tick
// runs only when it is the faster of the two.
func (in *Intake) run(eval func(parent *trace.Span)) {
	in.deploy(in.attr.InitialConfig)
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		var csp *trace.Span
		if in.span != nil {
			csp = in.span.ChildTrack("stream.controller")
			defer csp.End()
		}
		var flushC, evalC <-chan time.Time
		if eval != nil {
			t := time.NewTicker(in.cfg.EvalInterval)
			defer t.Stop()
			evalC = t.C
		}
		if eval == nil || in.cfg.FlushInterval < in.cfg.EvalInterval {
			t := time.NewTicker(in.cfg.FlushInterval)
			defer t.Stop()
			flushC = t.C
		}
		for {
			select {
			case <-in.stop:
				return
			case <-flushC:
				in.mergeAll(csp)
			case <-evalC:
				eval(csp)
			}
		}
	}()
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

// Ingest counts one per-packet event: it adds the event to its counter
// shard's batch under that shard's lock, and copies it nowhere. It never
// waits on a reader for longer than one merge of one shard. It returns
// false once the intake is closed. Wire it as an amp tap:
//
//	hp.SetTap(func(ev amp.Event) { in.Ingest(ev) })
func (in *Intake) Ingest(ev amp.Event) bool { return in.ingest(&ev) }

// ingest is Ingest by reference. Ingest stays small enough to inline, so
// a caller's event is not copied again however many wrappers (Pipeline,
// shard.Node) it passed through.
func (in *Intake) ingest(ev *amp.Event) bool {
	s := &in.shards[shardOf(ev, len(in.shards))]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	in.accumulate(&s.b, ev)
	s.mu.Unlock()
	return true
}

// Cut completes the current round: it merges every shard's batch into
// it, so a round folds everything Ingest has accepted so far. Readers of
// the round (HarvestRound, Status, TotalEvents) merge the same way
// before they read.
func (in *Intake) Cut() { in.mergeAll(nil) }

// mergeAll merges every shard's batch into the round, taking each
// shard's lock in turn. Merges hang a "stream.flush" span off parent.
func (in *Intake) mergeAll(parent *trace.Span) {
	for i := range in.shards {
		s := &in.shards[i]
		s.mu.Lock()
		in.merge(&s.b, parent)
		s.mu.Unlock()
	}
}

// Epoch returns the epoch the intake is currently accumulating under.
func (in *Intake) Epoch() int64 { return in.epoch.Load() }

// TotalEvents returns how many events the intake has counted so far.
func (in *Intake) TotalEvents() int64 {
	in.mergeAll(nil)
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st.total
}

// shardOf spreads events across counter shards by their flow key
// (amp.Event.FlowKey), keeping any one flow on one shard.
func shardOf(ev *amp.Event, n int) int {
	if n == 1 {
		return 0
	}
	return int(ev.FlowKey() % uint32(n))
}

// batch is a counter shard's accumulator: counters per link, merged into
// the shared round as a whole, so the round's lock is taken once per
// merge, not per packet.
type batch struct {
	epoch   int64
	events  int
	pkts    []int64
	bytes   []int64
	settled int64
	total   int64
	totalB  int64
	// first is the oldest unmerged event's timestamp: at merge,
	// now-first is the stage lag.
	first time.Time
}

func newBatch(links int) batch {
	return batch{
		pkts:  make([]int64, links),
		bytes: make([]int64, links),
	}
}

func (b *batch) reset() {
	b.events = 0
	clear(b.pkts)
	clear(b.bytes)
	b.settled, b.total, b.totalB = 0, 0, 0
}

// accumulate adds ev to b; b's shard lock is held. A batch counted under
// an epoch that has since ended is merged first, settle-excluded: its
// events were stamped under the old configuration.
func (in *Intake) accumulate(b *batch, ev *amp.Event) {
	if e := in.epoch.Load(); b.events == 0 {
		b.epoch = e
		b.first = ev.Time
	} else if b.epoch != e {
		in.merge(b, nil)
		b.epoch = e
		b.first = ev.Time
	}
	b.events++
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
}

// merge adds a shard batch to the shared round state and empties it; the
// batch's shard lock is held (lock order: shard, then round). A non-nil
// parent gets a "stream.flush" span carrying the batch's lag.
func (in *Intake) merge(b *batch, parent *trace.Span) {
	if b.events == 0 {
		return
	}
	var fsp *trace.Span
	if parent != nil {
		fsp = parent.Child("stream.flush")
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
		// Stale batch: counted before the last advance, so its round no
		// longer exists. Keep it out of the new round's counters.
		for _, n := range b.pkts {
			excluded += n
		}
	}
	st.total += b.total
	st.totalBytes += b.totalB
	st.settled += excluded
	in.mu.Unlock()

	in.mEvents.Add(b.total)
	in.mSettle.Add(excluded)
	in.mBatches.Inc()
	// Stage lag is the age of the batch's oldest event at merge time.
	lag := time.Since(b.first)
	in.hLag.Observe(lag.Seconds())
	if fsp != nil {
		fsp.Count("events", int64(b.events))
		fsp.Count("excluded", excluded)
		fsp.Set(trace.Float("lag_s", lag.Seconds()))
		fsp.End()
	}
	b.reset()
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
}

// snapshotLocked copies the round state into h, reusing its slices.
func (in *Intake) snapshotLocked(h *Harvest) {
	st := &in.st
	*h = Harvest{
		Epoch:      st.epoch,
		Config:     st.config,
		Pkts:       append(h.Pkts[:0], st.roundPkts...),
		Bytes:      append(h.Bytes[:0], st.roundBytes...),
		Total:      st.total,
		TotalBytes: st.totalBytes,
		Settled:    st.settled,
	}
}

// Status merges every shard and snapshots the current round's counters
// without marking them collected.
func (in *Intake) Status() Harvest {
	var h Harvest
	in.mergeAll(nil)
	in.mu.Lock()
	defer in.mu.Unlock()
	in.snapshotLocked(&h)
	return h
}

// HarvestRound merges every shard and snapshots the current round's
// counters for a controller that may fold them (the sharded-ingest Collect RPC lands here), and
// remembers how much of the round has now been seen.
func (in *Intake) HarvestRound() Harvest {
	var h Harvest
	in.harvest(&h, nil)
	return h
}

// harvest is HarvestRound into h's slices: a Pipeline's control
// goroutine harvests every tick into buffers it owns. Merges hang their
// spans off parent.
func (in *Intake) harvest(h *Harvest, parent *trace.Span) {
	in.mergeAll(parent)
	in.mu.Lock()
	defer in.mu.Unlock()
	in.st.harvested = sum(in.st.roundPkts)
	in.snapshotLocked(h)
}

// AdvanceEpoch ends the current round and starts the one the decide
// half chose (a Pipeline's fold, or the sharded-ingest controller's
// Apply RPC). It zeroes the round counters and bumps the epoch, which
// invalidates shard batches counted under the old one — merged late,
// they are settle-excluded rather than leak the old round's per-link
// counts into the new one. When the configuration changed it arms the settle window
// before releasing the lock, so no event produced under the old
// configuration can observe a stale deadline, and then deploys it.
// Packets merged into the round after its last harvest (collect→apply
// latency, RPC backoff, a round never collected at all) can reach no
// fold, so they are counted as settle-excluded rather than vanishing:
// total = folded + excluded holds on every intake. Re-applying the
// current (epoch, config) is an idempotent no-op, so a controller
// recovering from failover can re-broadcast its snapshot safely; an
// epoch older than the intake's is rejected (a stale controller must
// not rewind the shard).
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
	residue := sum(st.roundPkts) - st.harvested
	st.settled += residue
	for l := range st.roundPkts {
		st.roundPkts[l], st.roundBytes[l] = 0, 0
	}
	st.harvested = 0
	st.epoch = epoch
	in.epoch.Store(epoch)
	changed := cfgIdx != st.config
	if changed {
		st.config = cfgIdx
		if in.cfg.Settle > 0 {
			in.settleUntil.Store(time.Now().Add(in.cfg.Settle).UnixNano())
		}
	}
	in.mu.Unlock()
	in.mSettle.Add(residue)
	if changed {
		in.deploy(cfgIdx)
	}
	return nil
}

// shutdown stops intake, merges every shard into the round and stops
// the control goroutine. It runs once; concurrent callers wait. A shard
// is closed and merged under its lock, so every event Ingest accepted is
// in the round and every later one is refused.
func (in *Intake) shutdown(after func()) {
	in.closeOnce.Do(func() {
		for i := range in.shards {
			s := &in.shards[i]
			s.mu.Lock()
			s.closed = true
			in.merge(&s.b, nil)
			s.mu.Unlock()
		}
		close(in.stop)
		in.wg.Wait()
		after()
		in.span.End()
	})
}

// Close stops intake and merges every shard into the round. Stop
// producing events (close the honeypot or detach the tap) before calling
// it. Close is idempotent and safe for concurrent callers: exactly one
// caller runs the shutdown, the rest wait for it to finish.
func (in *Intake) Close() { in.shutdown(func() {}) }
