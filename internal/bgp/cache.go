package bgp

import (
	"sync"

	"spooftrack/internal/trace"
)

// DefaultOutcomeCacheCapacity bounds a cache built by NewOutcomeCache.
// It counts seed entries, the only ones a cache keeps: each holds a
// selection, a runner-up and an export class per AS (25 bytes, ~2.0 MB
// at 80k ASes). A base is an announcing link subset, so the paper's
// seven-link platform has at most 127 of them (~250 MB at 80k ASes; a
// campaign deploys 64), and 1024 entries never fill there.
const DefaultOutcomeCacheCapacity = 1024

// OutcomeCache memoizes delta seeds by canonical configuration key
// (Config.Key) and derives every other outcome from them. A cache
// belongs to one engine: keys do not encode engine parameters. It serves
// the offline campaign and whatever replays its configurations; the live
// loop deploys catchments measured beforehand and never consults it.
//
// Only a delta seed reads an outcome's runner-ups (Outcome.second), half
// of its memory, and on a campaign every seed is a base configuration:
// one that announces without prepending, poisoning or communities
// (DESIGN.md §5.13). So the cache keeps an outcome, runner-ups and all,
// when its configuration is a base, or when its miss found no seed (the
// cache then still offers one, whatever it has seen). Outcomes are
// immutable, so a hit returns the same *Outcome pointer the first
// propagation produced: each distinct seed configuration is propagated
// once per engine.
//
// Every other configuration is derived: one delta step from the resident
// outcome cheapest to carry into it (deltaCost), returned as a patch over
// that seed (see Outcome): the seed, the carry-over into the
// configuration, the selections of only the ASes the step left different
// from it (about an eighth of them on a campaign), and a one-byte
// catchment per AS. A step that falls back to a full run comes back dense
// instead, its runner-ups handed back to the engine. The cache does not
// keep a derived outcome, so asking again pays another delta step (0.5 ms
// on average over a campaign plan at 10k ASes, on one core of a 2-vCPU
// Xeon) and returns a new pointer to an equal outcome. A derived outcome belongs to its
// caller, who may Release it when done, handing its patch to the next
// derivation; Release on a cached seed is a no-op, so any caller can
// release whatever the cache returned. Either kind answers every
// catchment, path and audit query exactly as a fresh Propagate would;
// passed to PropagateDeltaInfo as prev, a derived one runs in full.
//
// Consumers that replay related configurations — the campaign runner,
// the scheduler's predictor, the greedy volume scoring loop, which
// interleaves candidate families rather than stepping through adjacent
// configs — ride the incremental path without code changes;
// PropagateDeltaInfo transparently falls back to a full run whenever the
// seed outcome cannot help. Seeds stay in admission order and are never
// evicted: a cache holding its capacity admits nothing more, and a
// further seed configuration comes back like a derived one.
type OutcomeCache struct {
	mu        sync.Mutex
	m         map[string]*Outcome
	seeds     []*Outcome // admission order, oldest first
	cap       int
	hits      uint64
	misses    uint64
	deltaInc  uint64 // misses resolved on the incremental delta path
	deltaFull uint64 // misses that fell back to full propagation
}

// CacheStats is a point-in-time view of a cache's effectiveness:
// cumulative hit and miss counts plus the current number of resident
// seeds. Every derived outcome counts as a miss, however often it is
// asked for. DeltaIncremental / DeltaFull split the misses by how they
// resolved: seeded through the incremental delta path versus recomputed
// in full.
type CacheStats struct {
	Hits             uint64
	Misses           uint64
	DeltaIncremental uint64
	DeltaFull        uint64
	Size             int
}

// NewOutcomeCache returns an empty cache bounded at
// DefaultOutcomeCacheCapacity seeds.
func NewOutcomeCache() *OutcomeCache {
	return &OutcomeCache{m: make(map[string]*Outcome), cap: DefaultOutcomeCacheCapacity}
}

// pickSeed returns the converged resident outcome cheapest to carry
// into cfg by deltaCost, ties toward the most recently admitted, or nil
// when none can seed. Caller holds mu. It walks every seed, newest
// first, and stops at cost 0: scoring an entry touches only a handful of
// announcements and allocates nothing, while the payoff is the
// difference between a delta over one small catchment and a full
// propagation. Plan order is a poor guide to the cheap base — a prepend
// is cheapest from the config without the prepended announcement, not
// from its sibling prepends — so the newest seed alone would miss it.
func (c *OutcomeCache) pickSeed(cfg Config) *Outcome {
	var best *Outcome
	bestCost := 0
	for i := len(c.seeds) - 1; i >= 0; i-- {
		out := c.seeds[i]
		// An unconverged, dispute-frozen entry cannot seed: the delta path
		// would reject it and run in full.
		if !out.converged {
			continue
		}
		if d := deltaCost(out.cfg, cfg); best == nil || d < bestCost {
			best, bestCost = out, d
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
	if prior, ok := c.m[key]; ok {
		c.hits++
		size := len(c.seeds)
		c.mu.Unlock()
		c.endSpan(sp, 1, 0, size)
		return prior, nil
	}
	// Seed the miss with the cheapest resident outcome. Any converged
	// previous outcome yields the same (byte-identical) result, so
	// racing misses picking different seeds is harmless.
	seed := c.pickSeed(cfg)
	c.mu.Unlock()
	if seed != nil && !isBase(cfg) {
		return c.derive(e, seed, cfg, sp)
	}
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
	c.mu.Lock()
	if prior, ok := c.m[key]; ok {
		c.hits++
		size := len(c.seeds)
		c.mu.Unlock()
		out.Release() // lost the race; nobody else holds it
		c.endSpan(sp, 1, 0, size)
		return prior, nil
	}
	c.countMiss(info)
	keep := len(c.seeds) < c.cap
	if keep {
		out.cached = true
		c.m[key] = &out
		c.seeds = append(c.seeds, &out)
	}
	size := len(c.seeds)
	c.mu.Unlock()
	if !keep {
		// A seed a full cache cannot admit: the caller owns it, and it can
		// never seed.
		out.shedSecond()
	}
	c.endSpan(sp, 0, 1, size)
	return &out, nil
}

// derive resolves a miss the cache does not keep: one delta step from
// seed, returned as a patch over it, or — when the step fell back to a
// full run — as a dense outcome without its runner-ups.
func (c *OutcomeCache) derive(e *Engine, seed *Outcome, cfg Config, sp *trace.Span) (*Outcome, error) {
	out, info, err := e.derive(seed, cfg, sp)
	if err != nil {
		sp.End()
		return nil, err
	}
	if out.second != nil {
		out.shedSecond()
	}
	c.mu.Lock()
	c.countMiss(info)
	size := len(c.seeds)
	c.mu.Unlock()
	c.endSpan(sp, 0, 1, size)
	return out, nil
}

// countMiss counts a resolved miss and how it resolved. Caller holds mu.
func (c *OutcomeCache) countMiss(info DeltaInfo) {
	c.misses++
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

// StatsSnapshot returns the hit, miss, delta-split and size counters
// in one consistent read.
func (c *OutcomeCache) StatsSnapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		DeltaIncremental: c.deltaInc,
		DeltaFull:        c.deltaFull,
		Size:             len(c.seeds),
	}
}
