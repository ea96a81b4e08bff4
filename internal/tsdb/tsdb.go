// Package tsdb is an in-process, dependency-free time-series engine for
// the attribution pipeline's own telemetry. It scrapes a
// metrics.Registry on a ticker, decomposes every metric (plain,
// labeled-vector child, histogram) into flat series, and stores each
// series in Gorilla-compressed chunks across tiered retention windows
// (raw for minutes, downsampled for hours). Queries reconstruct ranges,
// rates, aggregations, quantiles-over-time, and full
// registry-snapshot-shaped views at a past instant — what the SLO
// watchdog's burn-rate rules and spooftrackd's /query + /dash surfaces
// run on.
//
// Localization campaigns run for hours (the paper's single-prefix runs
// take 11.7h); a point-in-time /metrics cannot answer "what did flush
// lag do over the campaign?". This package can, in a few MiB.
package tsdb

import (
	"sync"
	"sync/atomic"
	"time"

	"spooftrack/internal/metrics"
)

// Tier is one retention level. Resolution 0 means "every scrape" (the
// raw tier); otherwise at most one sample per Resolution is kept. Older
// samples are evicted past Retention, whole chunks at a time.
type Tier struct {
	Resolution time.Duration
	Retention  time.Duration
}

// DefaultTiers is the standard three-level layout: full-resolution
// recent history for incident triage, 15s for the watchdog's slow
// burn-rate windows, 5m for day-scale campaign review.
func DefaultTiers() []Tier {
	return []Tier{
		{Resolution: 0, Retention: 10 * time.Minute},
		{Resolution: 15 * time.Second, Retention: 2 * time.Hour},
		{Resolution: 5 * time.Minute, Retention: 24 * time.Hour},
	}
}

// Options configures a DB. Zero-value fields take defaults.
type Options struct {
	Registry *metrics.Registry
	Interval time.Duration // scrape cadence; default 1s
	Tiers    []Tier        // default DefaultTiers()
	// ChunkSamples caps samples per chunk before sealing; smaller chunks
	// evict more precisely, larger ones compress better. Default 120
	// (Gorilla's two-hour block at typical cadences, and ~2 minutes of
	// raw 1s data — fine-grained enough for a 10m raw retention).
	ChunkSamples int
}

// seriesKey identifies one flat series. Histograms decompose into a
// count series, a sum series, and one series per occupied bucket;
// vector children carry their "label=value,.." child key.
type seriesKey struct {
	family string // registry metric name
	child  string // "" for plain metrics, else "label=value,.."
	kind   kind
	bound  string // bucket bound ("+inf" or %g-formatted) for kindHistBucket
}

type kind uint8

const (
	kindScalar kind = iota
	kindHistCount
	kindHistSum
	kindHistBucket
)

// tierStore is one tier's chunk list for one series, oldest first.
type tierStore struct {
	res        int64 // ms between kept samples; 0 = every scrape
	retention  int64 // ms
	lastAppend int64 // unix ms of the newest kept sample
	chunks     []*chunk
}

// series is the storage for one flat series across all tiers. Its
// mutex covers both appends and decodes; contention is per-series, so
// concurrent queries of different series never serialize.
type series struct {
	key   seriesKey
	mu    sync.Mutex
	tiers []tierStore
}

// DB is the engine. All methods are safe for concurrent use.
type DB struct {
	reg          *metrics.Registry
	interval     time.Duration
	tiers        []Tier
	chunkSamples int

	mu     sync.RWMutex
	series map[seriesKey]*series
	bounds map[string][]float64 // histogram bucket layout per family

	scrapes atomic.Int64

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
	if len(opts.Tiers) == 0 {
		opts.Tiers = DefaultTiers()
	}
	if opts.ChunkSamples <= 0 {
		opts.ChunkSamples = 120
	}
	return &DB{
		reg:          opts.Registry,
		interval:     opts.Interval,
		tiers:        opts.Tiers,
		chunkSamples: opts.ChunkSamples,
		series:       make(map[seriesKey]*series),
		bounds:       make(map[string][]float64),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
}

// Start launches the scrape ticker. Stop with Stop.
func (db *DB) Start() {
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

// Stop halts the scrape loop and waits for it to exit. Idempotent;
// safe even if Start was never called.
func (db *DB) Stop() {
	db.stopOnce.Do(func() { close(db.stop) })
	select {
	case <-db.done:
	default:
		select {
		case <-db.done:
		case <-time.After(2 * db.interval):
		}
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

// ingest flattens one snapshot entry into series appends.
func (db *DB) ingest(ms int64, family, child string, v any) {
	switch x := v.(type) {
	case int64:
		db.append(ms, seriesKey{family: family, child: child, kind: kindScalar}, float64(x))
	case float64:
		db.append(ms, seriesKey{family: family, child: child, kind: kindScalar}, x)
	case metrics.HistogramSnapshot:
		db.noteBounds(family, x.Bounds)
		db.append(ms, seriesKey{family: family, child: child, kind: kindHistCount}, float64(x.Count))
		db.append(ms, seriesKey{family: family, child: child, kind: kindHistSum}, x.Sum)
		for bound, n := range x.Buckets {
			db.append(ms, seriesKey{family: family, child: child, kind: kindHistBucket, bound: bound}, float64(n))
		}
	case map[string]any:
		// Labeled vector: one nested entry per child.
		for ck, cv := range x {
			db.ingest(ms, family, ck, cv)
		}
	}
}

// append routes one sample to its series, creating storage on first
// sight (new vector children and freshly occupied histogram buckets
// appear mid-flight).
func (db *DB) append(ms int64, key seriesKey, v float64) {
	db.mu.RLock()
	s := db.series[key]
	db.mu.RUnlock()
	if s == nil {
		s = db.createSeries(key)
	}
	s.append(ms, v, db.chunkSamples)
}

func (db *DB) createSeries(key seriesKey) *series {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.series[key]; ok {
		return s
	}
	s := &series{key: key, tiers: make([]tierStore, len(db.tiers))}
	for i, t := range db.tiers {
		s.tiers[i] = tierStore{res: t.Resolution.Milliseconds(), retention: t.Retention.Milliseconds()}
	}
	db.series[key] = s
	return s
}

// noteBounds remembers a histogram family's bucket layout so SnapshotAt
// can rebuild interpolation-exact HistogramSnapshots.
func (db *DB) noteBounds(family string, bounds []float64) {
	db.mu.RLock()
	_, ok := db.bounds[family]
	db.mu.RUnlock()
	if ok {
		return
	}
	db.mu.Lock()
	if _, ok := db.bounds[family]; !ok {
		db.bounds[family] = append([]float64(nil), bounds...)
	}
	db.mu.Unlock()
}

// append adds the sample to every tier whose cadence is due, then
// evicts whole chunks past each tier's retention.
func (s *series) append(now int64, v float64, chunkSamples int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.tiers {
		t := &s.tiers[i]
		if t.res > 0 && t.lastAppend != 0 && now-t.lastAppend < t.res {
			continue
		}
		if now <= t.lastAppend && t.lastAppend != 0 {
			continue // ignore clock retreat; ordering is per-tier monotone
		}
		t.lastAppend = now
		var c *chunk
		if n := len(t.chunks); n > 0 && t.chunks[n-1].n < chunkSamples {
			c = t.chunks[n-1]
		} else {
			c = &chunk{}
			t.chunks = append(t.chunks, c)
		}
		c.append(now, v)
		cutoff := now - t.retention
		drop := 0
		for drop < len(t.chunks) && t.chunks[drop].tLast < cutoff {
			drop++
		}
		if drop > 0 {
			n := copy(t.chunks, t.chunks[drop:])
			for j := n; j < len(t.chunks); j++ {
				t.chunks[j] = nil
			}
			t.chunks = t.chunks[:n]
		}
	}
}

// Stats summarizes storage, for /query introspection and the
// compression acceptance test.
type Stats struct {
	Series     int   `json:"series"`
	Samples    int64 `json:"samples"`     // across all tiers
	Bytes      int64 `json:"bytes"`       // compressed payload across all tiers
	RawSamples int64 `json:"raw_samples"` // tier-0 only
	RawBytes   int64 `json:"raw_bytes"`
	Scrapes    int64 `json:"scrapes"`
}

// allSeries snapshots the series set, so a caller can walk it (taking
// each series' own lock) without holding db.mu.
func (db *DB) allSeries() []*series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	all := make([]*series, 0, len(db.series))
	for _, s := range db.series {
		all = append(all, s)
	}
	return all
}

// Stats walks every series; cheap (counts, not decodes).
func (db *DB) Stats() Stats {
	all := db.allSeries()
	st := Stats{Series: len(all), Scrapes: db.scrapes.Load()}
	for _, s := range all {
		s.mu.Lock()
		for i := range s.tiers {
			t := &s.tiers[i]
			for _, c := range t.chunks {
				st.Samples += int64(c.n)
				st.Bytes += int64(c.bytes())
				if t.res == 0 {
					st.RawSamples += int64(c.n)
					st.RawBytes += int64(c.bytes())
				}
			}
		}
		s.mu.Unlock()
	}
	return st
}
