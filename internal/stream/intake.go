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
// decides nothing. Events are sharded across worker goroutines, handed
// off a slab of BatchSize at a time; workers batch per-link counters
// and flush them into the shared round by count or tick; a control
// goroutine ticks the overload-recovery bookkeeping. Whoever owns the
// decision drives one round protocol, whether it runs in this process
// (a Pipeline) or across the network (a sharded-ingest controller,
// internal/shard): Cut completes the round, HarvestRound reads it, and
// AdvanceEpoch — the only call that ends a round — starts the next.
type Intake struct {
	cfg  Config
	attr Attribution

	shards    []shardQueue
	wg        sync.WaitGroup
	stop      chan struct{}
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
	mDropped *metrics.Counter
	mBatches *metrics.Counter
	mSettle  *metrics.Counter
	hLag     *metrics.Histogram

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
	// harvested is how many of the round's packets the last harvest of
	// this epoch saw; what arrives after it can reach no fold.
	harvested  int64
	roundPkts  []int64
	roundBytes []int64
	total      int64
	totalBytes int64
	settled    int64 // events excluded from every round
}

// NewIntake validates the attribution input, deploys the initial
// configuration, and starts the workers and the recovery tick. The
// decide-side fields of cfg (Eval, MinRoundPackets, Ledger) are not
// consulted.
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
	in.mDropped = reg.Counter("stream_dropped_total")
	in.mBatches = reg.Counter("stream_batches_total")
	in.mSettle = reg.Counter("stream_settle_excluded_total")
	in.hLag = reg.Histogram("stream_flush_lag_seconds", 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1, 5)

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
	return in, nil
}

// shardQueue is one worker's queue: QueueDepth events of storage, cut
// once into equal slabs. Producers append to cur under mu and send a
// slab on full when it fills — one channel operation per slab, not per
// event; the worker accumulates each slab and returns it on free, and
// takes a partly filled cur on its flush tick. Both channels have room
// for every slab, so no send blocks; the only wait is a producer's
// receive from free, made with mu released (takeSlab).
type shardQueue struct {
	mu  sync.Mutex
	cur []amp.Event // the slab being filled; nil until an event needs one
	// closed rejects Ingest once shutdown has begun; accepted counts the
	// events appended (shed ones are not), for Cut.
	closed   bool
	accepted int64

	full chan []amp.Event
	free chan []amp.Event
}

// slabShape splits a shard's QueueDepth events into count slabs of
// size: BatchSize each, smaller when that would leave fewer than two.
func slabShape(depth, batch int) (size, count int) {
	size = max(1, min(batch, depth/2))
	return size, max(2, depth/size)
}

func (q *shardQueue) init(size, count int) {
	q.full = make(chan []amp.Event, count)
	q.free = make(chan []amp.Event, count)
	store := make([]amp.Event, size*count)
	for i := 0; i < count; i++ {
		q.free <- store[i*size : i*size : (i+1)*size]
	}
}

// run deploys the initial configuration and starts the workers and the
// control goroutine, which calls tick every EvalInterval until Close.
func (in *Intake) run(tick func(parent *trace.Span)) {
	in.deploy(in.attr.InitialConfig)
	size, count := slabShape(in.cfg.QueueDepth, in.cfg.BatchSize)
	in.shards = make([]shardQueue, in.cfg.Workers)
	for i := range in.shards {
		in.shards[i].init(size, count)
		in.wg.Add(1)
		go in.worker(i, &in.shards[i])
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
// when no event was shed since the last tick, no full slab awaits a
// worker, and the recovery oracle (when configured) agrees the overload
// has passed. The oracle typically queries metric history and may take
// its own locks, so it is asked last, only while degraded, with nothing
// held.
func (in *Intake) tick() {
	queued := 0
	for i := range in.shards {
		queued += len(in.shards[i].full)
	}
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

// Ingest feeds one per-packet event into the intake: it appends the
// event to its shard's current slab and hands the slab to the worker
// when it fills. By default a shard with no free slab blocks the caller
// (backpressure instead of loss); with Config.Shed the event is dropped
// instead, counted, and the intake marked degraded. It returns false
// once the intake is closed. Wire it as an amp tap:
//
//	hp.SetTap(func(ev amp.Event) { in.Ingest(ev) })
func (in *Intake) Ingest(ev amp.Event) bool { return in.ingest(&ev) }

// ingest is Ingest by reference. Ingest stays small enough to inline, so
// a caller's event is copied once, into the slab, however many wrappers
// (Pipeline, shard.Node) it passed through.
func (in *Intake) ingest(ev *amp.Event) bool {
	q := &in.shards[shardOf(ev, len(in.shards))]
	q.mu.Lock()
	if q.cur == nil && !in.takeSlab(q) {
		q.mu.Unlock()
		// Overload: shed rather than stall the packet path. The event is
		// acknowledged (the intake is open) but unaccounted.
		in.droppedN.Add(1)
		in.mDropped.Inc()
		in.degraded.Store(true)
		return true
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.cur = append(q.cur, *ev)
	q.accepted++
	if len(q.cur) == cap(q.cur) {
		q.full <- q.cur
		q.cur = nil
	}
	q.mu.Unlock()
	return true
}

// takeSlab makes a free slab q's current one; q.mu is held on entry and
// on return. A producer waits for the worker to return a slab with the
// lock released, so neither the worker's flush tick nor Close, which
// both take it, waits on a producer that waits on the worker. With Shed
// on it never waits, and reports false when no slab is free. Once the
// shard is closed it gives up, leaving cur as it is.
func (in *Intake) takeSlab(q *shardQueue) bool {
	for q.cur == nil && !q.closed {
		select {
		case q.cur = <-q.free:
		default:
			if in.shed {
				return false
			}
			q.mu.Unlock()
			slab := <-q.free
			q.mu.Lock()
			if q.cur == nil && !q.closed {
				q.cur = slab
			} else {
				// Another producer took one meanwhile, or the shard
				// closed. free has room for every slab, so this send
				// does not block.
				q.free <- slab
			}
		}
	}
	return true
}

// Cut completes the current round: it hands every shard's partly
// filled slab to its worker and waits, at most timeout, until the
// intake has flushed every event Ingest accepted (shed ones are not), so
// a round folds what every worker holds of it and not only what one
// worker happened to flush first. It reports whether everything was
// flushed in time. A closed shard's cur is nil, so nothing is sent on a
// closed channel.
func (in *Intake) Cut(timeout time.Duration) bool {
	want := int64(0)
	for i := range in.shards {
		q := &in.shards[i]
		q.mu.Lock()
		if len(q.cur) > 0 {
			q.full <- q.cur
			q.cur = nil
		}
		want += q.accepted
		q.mu.Unlock()
	}
	deadline := time.Now().Add(timeout)
	for in.TotalEvents() < want {
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
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
func shardOf(ev *amp.Event, n int) int {
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

// batch is a worker's local accumulator: counters batched per link so
// the shared mutex is taken once per BatchSize events, not per packet.
type batch struct {
	epoch   int64
	events  int
	pkts    []int64
	bytes   []int64
	settled int64
	total   int64
	totalB  int64
	// first/last are the event timestamps bounding the batch: at flush,
	// now-first is the stage lag (oldest unflushed event's age) and last
	// is the shard's watermark.
	first time.Time
	last  time.Time
}

func newBatch(links int) *batch {
	return &batch{
		pkts:  make([]int64, links),
		bytes: make([]int64, links),
	}
}

func (b *batch) reset() {
	b.events = 0
	for i := range b.pkts {
		b.pkts[i], b.bytes[i] = 0, 0
	}
	b.settled, b.total, b.totalB = 0, 0, 0
}

func (in *Intake) worker(shard int, q *shardQueue) {
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
	for {
		select {
		case slab, ok := <-q.full:
			if !ok {
				in.flush(b, wsp)
				return
			}
			in.drain(q, b, slab, wsp)
			if len(slab) < cap(slab) {
				// A short slab is a cut's or shutdown's hand-off: the
				// producer has nothing more for now, so flush now.
				in.flush(b, wsp)
			}
		case <-ticker.C:
			// Take the partly filled slab: a quiet producer may not fill
			// it for a long time.
			q.mu.Lock()
			slab := q.cur
			q.cur = nil
			q.mu.Unlock()
			if slab != nil {
				in.drain(q, b, slab, wsp)
			}
			if b.events > 0 {
				in.flush(b, wsp)
			}
		}
	}
}

// drain accumulates a slab's events, flushing every BatchSize, and
// returns the slab to the free list.
func (in *Intake) drain(q *shardQueue, b *batch, slab []amp.Event, wsp *trace.Span) {
	for i := range slab {
		in.accumulate(b, &slab[i], wsp)
		if b.events >= in.cfg.BatchSize {
			in.flush(b, wsp)
		}
	}
	q.free <- slab[:0]
}

func (in *Intake) accumulate(b *batch, ev *amp.Event, wsp *trace.Span) {
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
	st.total += b.total
	st.totalBytes += b.totalB
	st.settled += excluded
	in.mu.Unlock()

	in.mEvents.Add(b.total)
	in.mSettle.Add(excluded)
	in.mBatches.Inc()
	// Stage lag is the age of the batch's oldest event at flush time; the
	// watermark is the newest event time this shard has pushed downstream.
	lag := time.Since(b.first)
	in.hLag.Observe(lag.Seconds())
	if fsp != nil {
		fsp.Count("events", int64(b.events))
		fsp.Count("excluded", excluded)
		fsp.Set(
			trace.Float("lag_s", lag.Seconds()),
			trace.Float("watermark_unix_s", float64(b.last.UnixNano())/1e9),
		)
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
	Degraded   bool    `json:"degraded"`
	Dropped    int64   `json:"dropped"`
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
		Degraded:   in.degraded.Load(),
		Dropped:    in.droppedN.Load(),
	}
}

// Status snapshots the current round's counters without marking them
// collected.
func (in *Intake) Status() Harvest {
	var h Harvest
	in.mu.Lock()
	defer in.mu.Unlock()
	in.snapshotLocked(&h)
	return h
}

// HarvestRound snapshots the current round's counters for a controller
// that may fold them (the sharded-ingest Collect RPC lands here), and
// remembers how much of the round has now been seen.
func (in *Intake) HarvestRound() Harvest {
	var h Harvest
	in.harvest(&h)
	return h
}

// harvest is HarvestRound into h's slices: a Pipeline's control
// goroutine harvests every tick into buffers it owns.
func (in *Intake) harvest(h *Harvest) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.st.harvested = sum(in.st.roundPkts)
	in.snapshotLocked(h)
}

// AdvanceEpoch ends the current round and starts the one the decide
// half chose (a Pipeline's fold, or the sharded-ingest controller's
// Apply RPC). It zeroes the round counters and bumps the epoch, which
// invalidates worker batches accumulated under the old one — flushed
// late, they would otherwise leak the old round's per-link counts into
// the new one. When the configuration changed it arms the settle window
// before releasing the lock, so no event produced under the old
// configuration can observe a stale deadline, and then deploys it.
// Packets flushed into the round after its last harvest (collect→apply
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

// shutdown stops intake, then drains and flushes every shard and stops
// the control goroutine. It runs once; concurrent callers wait. Every
// event Ingest accepted sits in a slab on full or in cur, which shutdown
// sends on full before closing it; a producer still waiting for a free
// slab gets one from the draining worker, finds the shard closed and
// returns false.
func (in *Intake) shutdown(after func()) {
	in.closeOnce.Do(func() {
		for i := range in.shards {
			q := &in.shards[i]
			q.mu.Lock()
			q.closed = true
			if q.cur != nil {
				q.full <- q.cur
				q.cur = nil
			}
			q.mu.Unlock()
			close(q.full)
		}
		close(in.stop)
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
