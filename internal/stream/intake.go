package stream

import (
	"fmt"
	"sync"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
)

// Intake is the count half of the loop (§III-B): it turns tapped events
// into per-link round counters under the deployed configuration and
// decides nothing. The round lives in its Config.Workers counter shards:
// each event is counted on the goroutine that calls Ingest, into its
// shard's per-link counters, under that shard's lock, and readers
// (HarvestRound, Status, TotalEvents) sum the shards. Locks are always
// taken Intake.mu first, then the shards in index order. An Intake runs
// no goroutine. Whoever owns the decision drives one round protocol,
// whether it runs in this process (a Pipeline) or across the network (a
// sharded-ingest controller, internal/shard): HarvestRound reads the
// round, and AdvanceEpoch — the only call that ends a round — starts the
// next.
type Intake struct {
	cfg  Config
	attr Attribution

	shards    []counterShard
	closeOnce sync.Once

	// deployMu serializes deploys and guards the catchment table they
	// refresh in place and hand the Deploy callback. refill is set when
	// SourceASNs repeat an ASN, where only clearing and refilling the
	// table gives the last routed source of an ASN its entry.
	deployMu sync.Mutex
	table    map[uint32]uint8
	refill   bool

	// mu serializes the readers and AdvanceEpoch, and guards the fields
	// below it.
	mu    sync.Mutex
	epoch int64
	// config is the configuration the round is measured under.
	config int
	// harvested is how many of the round's packets the last harvest of
	// this epoch saw; what arrives after it can reach no fold.
	harvested int64
	// excluded is the unharvested residue of every ended round.
	excluded int64
	// published are the event and settle-excluded totals the metric
	// counters already hold.
	publishedEvents, publishedSettled int64
	// settleUntil is the unix-nano time before which events are excluded
	// from round accounting. It is written with every shard lock held
	// too, so Ingest reads it under its own shard's lock.
	settleUntil int64

	mEvents *metrics.Counter
	mSettle *metrics.Counter

	// span is the root trace span (nil when tracing is off at
	// construction); a Pipeline's control goroutine hangs its track off
	// it.
	span *trace.Span

	start time.Time
}

// counterShard is one share of the current round: what the producers
// Ingest routes here counted, under mu. pkts and bytes are per link and
// zeroed when the round ends; total, totalBytes and settled run for the
// intake's life. closed rejects Ingest once shutdown has begun.
type counterShard struct {
	mu                         sync.Mutex
	closed                     bool
	pkts, bytes                []int64
	total, totalBytes, settled int64
}

// NewIntake validates the attribution input and deploys the initial
// configuration. The decide-side fields of cfg (EvalInterval, Eval,
// MinRoundPackets, Ledger) are not consulted.
func NewIntake(attr Attribution, cfg Config) (*Intake, error) {
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

	in := &Intake{cfg: cfg, attr: attr, config: attr.InitialConfig, start: time.Now()}
	in.mEvents = cfg.Metrics.Counter("stream_events_total")
	in.mSettle = cfg.Metrics.Counter("stream_settle_excluded_total")

	in.span = trace.Start("stream.pipeline")
	if in.span != nil {
		in.span.Set(
			trace.Int("workers", int64(cfg.Workers)),
			trace.Int("links", int64(attr.NumLinks)),
			trace.Int("sources", int64(n)),
		)
	}

	in.shards = make([]counterShard, cfg.Workers)
	for i := range in.shards {
		in.shards[i].pkts = make([]int64, attr.NumLinks)
		in.shards[i].bytes = make([]int64, attr.NumLinks)
	}
	in.deploy(attr.InitialConfig)
	return in, nil
}

// deploy materializes configuration cfgIdx through the Deploy callback,
// rendered as a border catchment table. The intake keeps one table and
// refreshes it in place: each source's ASN is set to its link, or
// deleted when the source is unrouted. Every ASN is inserted on the
// first deploy, so the table never grows after it and a warm deploy
// allocates nothing. Call it outside in.mu.
func (in *Intake) deploy(cfgIdx int) {
	if in.cfg.Deploy == nil {
		return
	}
	in.deployMu.Lock()
	defer in.deployMu.Unlock()
	row := in.attr.Catchments[cfgIdx]
	if in.table == nil {
		in.table = make(map[uint32]uint8, len(row))
		for _, asn := range in.attr.SourceASNs {
			in.table[uint32(asn)] = 0
		}
		in.refill = len(in.table) < len(row)
	}
	if in.refill {
		clear(in.table)
	}
	for k, l := range row {
		asn := uint32(in.attr.SourceASNs[k])
		switch {
		case l != bgp.NoLink:
			in.table[asn] = uint8(l)
		case !in.refill:
			delete(in.table, asn)
		}
	}
	in.cfg.Deploy(cfgIdx, in.table)
}

// Ingest counts one per-packet event into its counter shard under that
// shard's lock, and copies it nowhere. It never waits on a reader for
// longer than one read of one shard. It returns false once the intake is
// closed. Wire it as an amp tap:
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
	s.total++
	s.totalBytes += int64(ev.WireLen)
	if su := in.settleUntil; su != 0 && ev.Time.UnixNano() < su {
		s.settled++
	} else if int(ev.IngressLink) < len(s.pkts) {
		s.pkts[ev.IngressLink]++
		s.bytes[ev.IngressLink] += int64(ev.WireLen)
	}
	s.mu.Unlock()
	return true
}

// shardOf spreads events across counter shards by their flow key
// (amp.Event.FlowKey), keeping any one flow on one shard.
func shardOf(ev *amp.Event, n int) int {
	if n == 1 {
		return 0
	}
	return int(ev.FlowKey() % uint32(n))
}

// Epoch returns the epoch the intake is currently counting under.
func (in *Intake) Epoch() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.epoch
}

// TotalEvents returns how many events the intake has counted so far.
func (in *Intake) TotalEvents() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.read(nil)
}

// read sums the counter shards, taking each one's lock in turn; in.mu is
// held, so no round ends under it. A non-nil h receives the round,
// reusing its slices. It returns the event total, and brings the event
// and settle-excluded counters up to the totals: publishing on reads,
// not per event, keeps a shared atomic off the Ingest path.
func (in *Intake) read(h *Harvest) int64 {
	var total, totalBytes, settled int64
	if h != nil {
		n := in.attr.NumLinks
		h.Pkts = append(h.Pkts[:0], make([]int64, n)...)
		h.Bytes = append(h.Bytes[:0], make([]int64, n)...)
	}
	for i := range in.shards {
		s := &in.shards[i]
		s.mu.Lock()
		if h != nil {
			for l, n := range s.pkts {
				h.Pkts[l] += n
				h.Bytes[l] += s.bytes[l]
			}
		}
		total += s.total
		totalBytes += s.totalBytes
		settled += s.settled
		s.mu.Unlock()
	}
	settled += in.excluded
	if h != nil {
		h.Epoch, h.Config = in.epoch, in.config
		h.Total, h.TotalBytes, h.Settled = total, totalBytes, settled
	}
	in.mEvents.Add(total - in.publishedEvents)
	in.mSettle.Add(settled - in.publishedSettled)
	in.publishedEvents, in.publishedSettled = total, settled
	return total
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

// Status snapshots the current round's counters without marking them
// collected.
func (in *Intake) Status() Harvest {
	var h Harvest
	in.mu.Lock()
	defer in.mu.Unlock()
	in.read(&h)
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
	in.read(h)
	in.harvested = sum(h.Pkts)
}

// AdvanceEpoch ends the current round and starts the one the decide
// half chose (a Pipeline's fold, or the sharded-ingest controller's
// Apply RPC). With every shard lock held it zeroes the round counters
// and, when the configuration changed, arms the settle window, so no
// event counted after the advance can observe a stale deadline; it
// deploys the new configuration after releasing them. Packets counted
// after the round's last harvest (collect→apply latency, RPC backoff, a
// round never collected at all) can reach no fold, so they are counted
// as settle-excluded rather than vanishing: total = folded + excluded
// holds on every intake. Re-applying the current (epoch, config) is an
// idempotent no-op, so a controller recovering from failover can
// re-broadcast its snapshot safely; an epoch older than the intake's is
// rejected (a stale controller must not rewind the shard).
func (in *Intake) AdvanceEpoch(epoch int64, cfgIdx int) error {
	if cfgIdx < 0 || cfgIdx >= len(in.attr.Catchments) {
		return fmt.Errorf("stream: advance to config %d out of range", cfgIdx)
	}
	in.mu.Lock()
	if epoch < in.epoch {
		cur := in.epoch
		in.mu.Unlock()
		return fmt.Errorf("stream: stale epoch %d (intake at %d)", epoch, cur)
	}
	if epoch == in.epoch && cfgIdx == in.config {
		in.mu.Unlock()
		return nil
	}
	held := int64(0)
	for i := range in.shards {
		s := &in.shards[i]
		s.mu.Lock()
		held += sum(s.pkts)
		clear(s.pkts)
		clear(s.bytes)
	}
	in.excluded += held - in.harvested
	in.harvested = 0
	in.epoch = epoch
	changed := cfgIdx != in.config
	if changed {
		in.config = cfgIdx
		if in.cfg.Settle > 0 {
			in.settleUntil = time.Now().Add(in.cfg.Settle).UnixNano()
		}
	}
	for i := range in.shards {
		in.shards[i].mu.Unlock()
	}
	in.read(nil)
	in.mu.Unlock()
	if changed {
		in.deploy(cfgIdx)
	}
	return nil
}

// shutdown closes every counter shard, so every later Ingest is refused,
// publishes the final totals and then runs after. It runs once;
// concurrent callers wait.
func (in *Intake) shutdown(after func()) {
	in.closeOnce.Do(func() {
		in.mu.Lock()
		for i := range in.shards {
			s := &in.shards[i]
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
		}
		in.read(nil)
		in.mu.Unlock()
		after()
		in.span.End()
	})
}

// Close stops intake: every event Ingest accepted is in the round, and
// every later one is refused. Stop producing events (close the honeypot
// or detach the tap) before calling it. Close is idempotent and safe for
// concurrent callers: exactly one caller runs the shutdown, the rest
// wait for it to finish.
func (in *Intake) Close() { in.shutdown(func() {}) }
