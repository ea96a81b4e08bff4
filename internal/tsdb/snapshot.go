package tsdb

import (
	"math"
	"time"

	"spooftrack/internal/metrics"
)

// SnapshotAt reconstructs a metrics.Registry.Snapshot()-shaped view of
// the world at instant t: plain metrics as float64, vectors as
// map[string]any keyed by child, histograms as HistogramSnapshot with
// Count/Sum/Buckets/Bounds (and the derived Mean/P50/P99) rebuilt from
// their decomposed series. Min/Max are not stored per-sample and come
// back zero. Every watch expression combinator — Metric, Series,
// Quantile, Ratio, VecSum, Sum — evaluates over the result exactly as
// it would over a live snapshot, which is what lets windowed SLO rules
// reuse the whole expression language: a rule's rate over window W is
// expr(SnapshotAt(now)) − expr(SnapshotAt(now−W)) over W.
//
// Each series answers with its latest sample at or before t (finest
// tier that reaches back that far wins); series with no sample by t are
// absent, exactly like a registry before first use.
func (db *DB) SnapshotAt(t time.Time) map[string]any {
	ms := t.UnixMilli()
	db.mu.RLock()
	all := make([]*series, 0, len(db.series))
	for _, s := range db.series {
		all = append(all, s)
	}
	bounds := make(map[string][]float64, len(db.bounds))
	for f, b := range db.bounds {
		bounds[f] = b
	}
	db.mu.RUnlock()

	// Gather raw values per (family, child).
	cells := make(map[string]map[string]*cell) // family -> child -> cell
	for _, s := range all {
		v, ok := s.valueAt(ms)
		if !ok {
			continue
		}
		byChild := cells[s.key.family]
		if byChild == nil {
			byChild = make(map[string]*cell)
			cells[s.key.family] = byChild
		}
		c := byChild[s.key.child]
		if c == nil {
			c = &cell{}
			byChild[s.key.child] = c
		}
		switch s.key.kind {
		case kindScalar:
			c.scalar, c.hasScalar = v, true
		case kindHistCount:
			c.count, c.hasHist = v, true
		case kindHistSum:
			c.sum, c.hasHist = v, true
		case kindHistBucket:
			if c.buckets == nil {
				c.buckets = make(map[string]int64)
			}
			c.buckets[s.key.bound] = int64(v)
			c.hasHist = true
		}
	}

	out := make(map[string]any, len(cells))
	for family, byChild := range cells {
		plain, isPlain := byChild[""]
		if isPlain && len(byChild) == 1 {
			out[family] = cellValue(plain, bounds[family])
			continue
		}
		m := make(map[string]any, len(byChild))
		for child, c := range byChild {
			m[child] = cellValue(c, bounds[family])
		}
		out[family] = m
	}
	return out
}

// cell accumulates one (family, child)'s decomposed series while a
// snapshot is being reassembled.
type cell struct {
	scalar    float64
	hasScalar bool
	count     float64
	sum       float64
	hasHist   bool
	buckets   map[string]int64
}

// cellValue renders one (family, child) cell as its snapshot shape.
func cellValue(c *cell, bounds []float64) any {
	if c.hasHist {
		return rebuildHistogram(c.count, c.sum, c.buckets, bounds)
	}
	return c.scalar
}

// rebuildHistogram reassembles a HistogramSnapshot from decomposed
// series, recomputing the interpolated quantiles from buckets+bounds
// through the same metrics.BucketQuantile the live histogram uses.
func rebuildHistogram(count, sum float64, buckets map[string]int64, bounds []float64) metrics.HistogramSnapshot {
	hs := metrics.HistogramSnapshot{
		Count:   int64(count),
		Sum:     sum,
		Buckets: buckets,
		Bounds:  bounds,
	}
	if hs.Buckets == nil {
		hs.Buckets = map[string]int64{}
	}
	if hs.Count > 0 {
		hs.Mean = hs.Sum / float64(hs.Count)
	}
	if len(bounds) > 0 && len(buckets) > 0 {
		counts := bucketCounts(bounds, buckets)
		hs.P50, _ = weightQuantile(bounds, counts, 0.50)
		hs.P99, _ = weightQuantile(bounds, counts, 0.99)
	}
	return hs
}

// bucketCounts lays a bound-keyed bucket map out positionally
// (len(bounds)+1 slots, overflow last).
func bucketCounts(bounds []float64, buckets map[string]int64) []float64 {
	counts := make([]float64, len(bounds)+1)
	idx := boundIndex(bounds)
	for key, n := range buckets {
		if i, ok := idx[key]; ok {
			counts[i] = float64(n)
		}
	}
	return counts
}

// valueAt returns the series' latest sample at or before t, preferring
// the finest tier whose history reaches back that far.
func (s *series) valueAt(t int64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.tiers {
		chunks := s.tiers[i].chunks
		for j := len(chunks) - 1; j >= 0; j-- {
			c := chunks[j]
			if c.tFirst > t {
				continue
			}
			pts := c.decode(nil, math.MinInt64, t)
			if len(pts) > 0 {
				return pts[len(pts)-1].V, true
			}
			break
		}
	}
	return 0, false
}
