package bgp

import (
	"sync"

	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
)

// DefaultOutcomeCacheCapacity bounds a cache built by NewOutcomeCache.
// It counts seed entries, the only ones a cache keeps: each holds a
// selection, a runner-up and an export class per AS (25 bytes, ~2.0 MB
// at 80k ASes). A base is an announcing link subset, so the paper's
// seven-link platform has at most 127 of them (~250 MB at 80k ASes; a
// campaign deploys 64), and 1024 entries never evict one there.
const DefaultOutcomeCacheCapacity = 1024

// OutcomeCache memoizes delta seeds by canonical configuration key
// (Config.Key) and derives every other outcome from them. A cache
// belongs to one engine: keys do not encode engine parameters.
//
// Only a delta seed reads an outcome's runner-ups (Outcome.second), half
// of its memory, and on a campaign every seed is a base configuration:
// one that announces without prepending, poisoning or communities
// (DESIGN.md §5.13). So the cache keeps an outcome, runner-ups and all,
// when its configuration is a base, or when its miss found no seed (the
// cache then still offers one, whatever it has seen). Outcomes are
// immutable, so a hit returns the same *Outcome pointer the first
// propagation produced: each distinct seed configuration is propagated
// once per engine, while it stays resident.
//
// Every other configuration is derived: one delta step from the resident
// outcome cheapest to carry into it (deltaCost), its runner-ups handed
// back to the engine before it is returned. The cache does not keep it,
// so asking again pays another delta step (about a millisecond at 10k
// ASes) and returns a new pointer to an equal outcome. A derived outcome
// belongs to its caller, who may Release it when done; Release on a
// cached seed is a no-op, so any caller can release whatever the cache
// returned. Either kind answers every catchment, path and audit query;
// passed to PropagateDeltaInfo as prev, a derived one runs in full.
//
// Consumers that replay related configurations — the campaign runner,
// the scheduler's predictor, the greedy volume scoring loop, which
// interleaves candidate families rather than stepping through adjacent
// configs — ride the incremental path without code changes;
// PropagateDeltaInfo transparently falls back to a full run whenever the
// seed outcome cannot help. Beyond its capacity the least-recently-used
// seed is evicted (hits refresh recency).
type OutcomeCache struct {
	mu        sync.Mutex
	m         map[string]*cacheEntry
	cap       int
	head      *cacheEntry // most recently used
	tail      *cacheEntry // least recently used
	hits      uint64
	misses    uint64
	evicts    uint64
	deltaInc  uint64 // misses resolved on the incremental delta path
	deltaFull uint64 // misses that fell back to full propagation
	// hitC/missC/evictC, when set via Instrument, are bumped alongside
	// the internal counters so a registry sees the events as one labeled
	// family instead of scraped gauges.
	hitC   *metrics.Counter
	missC  *metrics.Counter
	evictC *metrics.Counter
}

type cacheEntry struct {
	key        string
	out        *Outcome
	prev, next *cacheEntry
}

// CacheStats is a point-in-time view of a cache's effectiveness:
// cumulative hit, miss, and eviction counts plus the current number of
// resident seeds and the configured capacity (0 = unbounded). Every
// derived outcome counts as a miss, however often it is asked for.
// DeltaIncremental / DeltaFull split the misses by how they resolved:
// seeded through the incremental delta path versus recomputed in full.
// Exposed through the metrics registry by cmd/spooftrackd.
type CacheStats struct {
	Hits             uint64
	Misses           uint64
	Evictions        uint64
	DeltaIncremental uint64
	DeltaFull        uint64
	Size             int
	Capacity         int
}

// NewOutcomeCache returns an empty cache bounded at
// DefaultOutcomeCacheCapacity entries.
func NewOutcomeCache() *OutcomeCache {
	return NewOutcomeCacheCap(DefaultOutcomeCacheCapacity)
}

// NewOutcomeCacheCap returns an empty cache bounded at capacity entries;
// capacity <= 0 means unbounded.
func NewOutcomeCacheCap(capacity int) *OutcomeCache {
	return &OutcomeCache{m: make(map[string]*cacheEntry), cap: capacity}
}

// touch moves an entry to the MRU position. Caller holds mu.
func (c *OutcomeCache) touch(e *cacheEntry) {
	if c.head == e {
		return
	}
	// unlink
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	// push front
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// pickSeed returns the converged resident outcome cheapest to carry
// into cfg by deltaCost, ties toward the most recently used, or nil when
// none can seed. Caller holds mu. It walks the whole LRU list from the
// head and stops at cost 0: scoring an entry touches only a handful of
// announcements and allocates nothing, while the payoff is the
// difference between a delta over one small catchment and a full
// propagation. Plan order is a poor guide to the cheap base — a prepend
// is cheapest from the config without the prepended announcement, not
// from its sibling prepends — so recency alone would miss it.
func (c *OutcomeCache) pickSeed(cfg Config) *Outcome {
	var best *Outcome
	bestCost := 0
	for e := c.head; e != nil; e = e.next {
		// An unconverged, dispute-frozen entry cannot seed: the delta path
		// would reject it and run in full.
		if !e.out.converged {
			continue
		}
		if d := deltaCost(e.out.cfg, cfg); best == nil || d < bestCost {
			best, bestCost = e.out, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// isBase reports whether cfg is a base configuration: no announcement
// prepends, poisons or carries communities. A campaign's location phase
// is all bases, and every delta a campaign seeds starts from one.
func isBase(cfg Config) bool {
	for i := range cfg.Anns {
		a := &cfg.Anns[i]
		if a.Prepend != 0 || len(a.Poison) != 0 || len(a.Communities) != 0 {
			return false
		}
	}
	return true
}

// evictOver drops LRU entries until the size fits the capacity. Caller
// holds mu. Evicted outcomes stay valid for callers still holding them
// (outcomes are immutable, and Release still ignores them); only the
// memoization is dropped.
func (c *OutcomeCache) evictOver() {
	if c.cap <= 0 {
		return
	}
	for len(c.m) > c.cap && c.tail != nil {
		victim := c.tail
		c.tail = victim.prev
		if c.tail != nil {
			c.tail.next = nil
		} else {
			c.head = nil
		}
		delete(c.m, victim.key)
		c.evicts++
		if c.evictC != nil {
			c.evictC.Inc()
		}
	}
}

// Propagate returns the engine's outcome for the configuration: the
// resident seed when the canonical key matches one, else a new outcome,
// kept when it can seed and derived for the caller alone when it cannot.
// Safe for concurrent use; on a race between two misses of one seed
// configuration, the first stored outcome wins so pointer identity stays
// stable.
func (c *OutcomeCache) Propagate(e *Engine, cfg Config) (*Outcome, error) {
	return c.PropagateTraced(e, cfg, nil)
}

// PropagateTraced is Propagate with trace-span parentage: the lookup's
// "bgp.cache" span (carrying hit/miss counters and the cache size)
// nests under parent, and on a miss the engine's delta propagation span
// nests under the lookup. With tracing disabled this costs a few atomic
// loads over Propagate.
func (c *OutcomeCache) PropagateTraced(e *Engine, cfg Config, parent *trace.Span) (*Outcome, error) {
	sp := trace.StartChild(parent, "bgp.cache")
	key := cfg.Key()
	c.mu.Lock()
	if ent, ok := c.m[key]; ok {
		c.hits++
		if c.hitC != nil {
			c.hitC.Inc()
		}
		c.touch(ent)
		size := len(c.m)
		c.mu.Unlock()
		c.endSpan(sp, 1, 0, size)
		return ent.out, nil
	}
	// Seed the miss with the cheapest resident outcome. Any converged
	// previous outcome yields the same (byte-identical) result, so
	// racing misses picking different seeds is harmless.
	seed := c.pickSeed(cfg)
	c.mu.Unlock()
	var (
		out  Outcome
		info DeltaInfo
		err  error
	)
	if seed != nil {
		out, info, err = e.PropagateDeltaTraced(seed, seed.Config(), cfg, sp)
	} else {
		out, err = e.PropagateTraced(cfg, sp)
		info.Mode = DeltaFullNoPrev
	}
	if err != nil {
		sp.End()
		return nil, err
	}
	if seed != nil && !isBase(cfg) {
		// Derived: the caller owns it, and it can never seed.
		out.shedSecond()
		c.mu.Lock()
		c.countMiss(info)
		size := len(c.m)
		c.mu.Unlock()
		c.endSpan(sp, 0, 1, size)
		return &out, nil
	}
	c.mu.Lock()
	if prior, ok := c.m[key]; ok {
		c.hits++
		if c.hitC != nil {
			c.hitC.Inc()
		}
		c.touch(prior)
		size := len(c.m)
		c.mu.Unlock()
		out.Release() // lost the race; nobody else holds it
		c.endSpan(sp, 1, 0, size)
		return prior.out, nil
	}
	c.countMiss(info)
	out.cached = true
	ent := &cacheEntry{key: key, out: &out}
	c.m[key] = ent
	ent.next = c.head
	if c.head != nil {
		c.head.prev = ent
	}
	c.head = ent
	if c.tail == nil {
		c.tail = ent
	}
	c.evictOver()
	size := len(c.m)
	c.mu.Unlock()
	c.endSpan(sp, 0, 1, size)
	return ent.out, nil
}

// countMiss counts a resolved miss and how it resolved. Caller holds mu.
func (c *OutcomeCache) countMiss(info DeltaInfo) {
	c.misses++
	if c.missC != nil {
		c.missC.Inc()
	}
	if info.Mode.Incremental() {
		c.deltaInc++
	} else {
		c.deltaFull++
	}
}

// endSpan stamps a lookup span with its hit/miss outcome and the cache
// size at resolution time.
func (c *OutcomeCache) endSpan(sp *trace.Span, hit, miss int64, size int) {
	if sp == nil {
		return
	}
	sp.Count("hit", hit)
	sp.Count("miss", miss)
	sp.Set(trace.Int("size", int64(size)))
	sp.End()
}

// Instrument attaches a labeled counter vector (conventionally
// bgp_outcome_cache_requests_total{result}) so hits, misses, and LRU
// evictions are counted under result="hit" / result="miss" /
// result="eviction" as they happen. Nil detaches. Counts recorded before
// Instrument are not replayed.
func (c *OutcomeCache) Instrument(v *metrics.CounterVec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v == nil {
		c.hitC, c.missC, c.evictC = nil, nil, nil
		return
	}
	c.hitC = v.With("hit")
	c.missC = v.With("miss")
	c.evictC = v.With("eviction")
}

// Stats returns the cumulative hit and miss counts.
func (c *OutcomeCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// StatsSnapshot returns hit, miss, eviction, and size counters in one
// consistent read — the shape the metrics registry's gauge functions
// consume.
func (c *OutcomeCache) StatsSnapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		Evictions:        c.evicts,
		DeltaIncremental: c.deltaInc,
		DeltaFull:        c.deltaFull,
		Size:             len(c.m),
		Capacity:         c.cap,
	}
}

// Len returns the number of resident seeds.
func (c *OutcomeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
