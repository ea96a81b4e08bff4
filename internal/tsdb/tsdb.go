// Package tsdb is an in-process, dependency-free time-series engine for
// the attribution pipeline's own telemetry. It scrapes a
// metrics.Registry on a ticker, keeps one flat series per scalar metric
// (a counter, a gauge, or one child of a labeled vector), and stores
// each series as plain timestamped samples across tiered retention
// windows (raw for minutes, downsampled for hours and a day). Histogram
// families are not kept: no daemon family is one. Queries read ranges,
// rates, aggregations and windowed increases — what the SLO watchdog's
// windowed rules and spooftrackd's /query + /dash surfaces run on.
//
// Localization campaigns run for hours (the paper's single-prefix runs
// take 11.7h); a point-in-time /metrics cannot answer "what did border
// drops do over the campaign?". This package can: at a 1s scrape a
// series' full history is about 1 370 samples of 16 bytes, ~22 KB, so a
// daemon's few dozen series need about a MiB and no compression.
package tsdb

import (
	"sync"
	"sync/atomic"
	"time"

	"spooftrack/internal/metrics"
)

// tier is one retention level. resolution 0 means "every scrape" (the
// raw tier); otherwise at most one sample per resolution is kept. A
// sample older than retention is evicted on the next append.
type tier struct {
	resolution time.Duration
	retention  time.Duration
}

// defaultTiers is the three-level layout every DB keeps: full-resolution
// recent history for incident triage, 15s for the watchdog's slow
// burn-rate windows, 5m for day-scale campaign review.
func defaultTiers() []tier {
	return []tier{
		{resolution: 0, retention: 10 * time.Minute},
		{resolution: 15 * time.Second, retention: 2 * time.Hour},
		{resolution: 5 * time.Minute, retention: 24 * time.Hour},
	}
}

// Options configures a DB. Every DB keeps defaultTiers; the unexported
// field lets this package's tests change them.
type Options struct {
	Registry *metrics.Registry
	Interval time.Duration // scrape cadence; default 1s

	tiers []tier // default defaultTiers()
}

// seriesKey identifies one flat series: a registry family and, for a
// vector child, its "label=value,.." child key.
type seriesKey struct {
	family string // registry metric name
	child  string // "" for plain metrics, else "label=value,.."
}

// tierStore is one tier's samples for one series, oldest first.
type tierStore struct {
	res       int64 // ms between kept samples; 0 = every scrape
	retention int64 // ms
	pts       []Point
}

// series is the storage for one flat series across all tiers. Its
// mutex covers both appends and reads; contention is per-series, so
// concurrent queries of different series never serialize.
type series struct {
	key   seriesKey
	mu    sync.Mutex
	tiers []tierStore
}

// DB is the engine. All methods are safe for concurrent use.
type DB struct {
	reg      *metrics.Registry
	interval time.Duration
	tiers    []tier

	mu     sync.RWMutex
	series map[seriesKey]*series

	scrapes atomic.Int64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a DB over reg. Call Start to begin scraping, or drive it
// manually with ScrapeOnce (tests do).
func New(opts Options) *DB {
	if opts.Registry == nil {
		panic("tsdb: Options.Registry is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if len(opts.tiers) == 0 {
		opts.tiers = defaultTiers()
	}
	return &DB{
		reg:      opts.Registry,
		interval: opts.Interval,
		tiers:    opts.tiers,
		series:   make(map[seriesKey]*series),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the scrape ticker. Stop with Stop.
func (db *DB) Start() {
	db.started.Store(true)
	go func() {
		defer close(db.done)
		tick := time.NewTicker(db.interval)
		defer tick.Stop()
		for {
			select {
			case <-db.stop:
				return
			case now := <-tick.C:
				db.ScrapeOnce(now)
			}
		}
	}()
}

// Stop halts the scrape loop and waits for it to exit, a scrape in
// progress included. Idempotent; safe even if Start was never called.
func (db *DB) Stop() {
	db.stopOnce.Do(func() { close(db.stop) })
	if db.started.Load() {
		<-db.done
	}
}

// ScrapeOnce snapshots the registry and appends one sample per series
// at the given instant. Exported so tests (and catch-up paths) can
// drive time explicitly.
func (db *DB) ScrapeOnce(now time.Time) {
	snap := db.reg.Snapshot()
	ms := now.UnixMilli()
	for name, v := range snap {
		db.ingest(ms, name, "", v)
	}
	db.scrapes.Add(1)
}

// ingest flattens one snapshot entry into series appends; a histogram
// is skipped.
func (db *DB) ingest(ms int64, family, child string, v any) {
	switch x := v.(type) {
	case int64:
		db.append(ms, seriesKey{family: family, child: child}, float64(x))
	case float64:
		db.append(ms, seriesKey{family: family, child: child}, x)
	case map[string]any:
		// Labeled vector: one nested entry per child.
		for ck, cv := range x {
			db.ingest(ms, family, ck, cv)
		}
	}
}

// append routes one sample to its series, creating storage on first
// sight (new vector children appear mid-flight).
func (db *DB) append(ms int64, key seriesKey, v float64) {
	db.mu.RLock()
	s := db.series[key]
	db.mu.RUnlock()
	if s == nil {
		s = db.createSeries(key)
	}
	s.append(ms, v)
}

func (db *DB) createSeries(key seriesKey) *series {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.series[key]; ok {
		return s
	}
	s := &series{key: key, tiers: make([]tierStore, len(db.tiers))}
	for i, t := range db.tiers {
		s.tiers[i] = tierStore{res: t.resolution.Milliseconds(), retention: t.retention.Milliseconds()}
	}
	db.series[key] = s
	return s
}

// append adds the sample to every tier whose cadence is due, then
// evicts that tier's samples older than its retention. Reslicing past
// the evicted head keeps an append amortised O(1): the backing array is
// copied only when append outgrows it.
func (s *series) append(now int64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.tiers {
		t := &s.tiers[i]
		if n := len(t.pts); n > 0 {
			last := t.pts[n-1].T
			if now <= last {
				continue // ignore clock retreat; ordering is per-tier monotone
			}
			if t.res > 0 && now-last < t.res {
				continue
			}
		}
		cutoff := now - t.retention
		drop := 0
		for drop < len(t.pts) && t.pts[drop].T < cutoff {
			drop++
		}
		t.pts = append(t.pts[drop:], Point{T: now, V: v})
	}
}
