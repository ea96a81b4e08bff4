package tsdb

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spooftrack/internal/metrics"
)

// Point is one sample. T is unix milliseconds.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// SeriesData is one series' slice of a query result.
type SeriesData struct {
	Family string  `json:"family"`
	Child  string  `json:"child,omitempty"`
	Kind   string  `json:"kind,omitempty"` // "" scalar, "count"/"sum"/"bucket" for histogram parts
	Bound  string  `json:"bound,omitempty"`
	Points []Point `json:"points"`
}

// Query selects a range from one metric family.
type Query struct {
	Series   string    // metric family name
	Child    string    // exact "label=value,.." child; "" selects all
	From, To time.Time // inclusive range
	Rate     bool      // per-second derivative (counter-reset aware)
	Agg      string    // "", "sum", "max" — collapse matched children
	Quantile float64   // >0: quantile-over-time on a histogram family
}

// Query runs q and returns the matched series, children sorted by key.
// Unknown families return an empty result, not an error — the caller
// (the /query endpoint, the dashboard poller) treats "no data yet" and
// "no such series" identically.
func (db *DB) Query(q Query) []SeriesData {
	from, to := q.From.UnixMilli(), q.To.UnixMilli()
	if q.Quantile > 0 {
		v, ok := db.QuantileOverTime(q.Series, q.Child, q.Quantile, q.From, q.To)
		if !ok {
			return nil
		}
		return []SeriesData{{
			Family: q.Series, Child: q.Child, Kind: "quantile",
			Points: []Point{{T: to, V: v}},
		}}
	}
	matched := db.match(q.Series, q.Child)
	out := make([]SeriesData, 0, len(matched))
	for _, s := range matched {
		pts := s.rangePoints(from, to)
		if q.Rate {
			pts = ratePoints(pts)
		}
		if len(pts) == 0 {
			continue
		}
		out = append(out, SeriesData{
			Family: s.key.family,
			Child:  s.key.child,
			Kind:   kindName(s.key.kind),
			Bound:  s.key.bound,
			Points: pts,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Child != out[j].Child {
			return out[i].Child < out[j].Child
		}
		return out[i].Bound < out[j].Bound
	})
	if q.Agg != "" && len(out) > 0 {
		return []SeriesData{aggregate(q.Series, q.Agg, out)}
	}
	return out
}

// match selects scalar-valued series of a family: plain scalars (and
// every vector child when child == ""). For histogram families, which
// have no scalar series, the count series stands in so rate queries
// answer "observations per second".
func (db *DB) match(family, child string) []*series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var scalars, counts []*series
	for k, s := range db.series {
		if k.family != family {
			continue
		}
		if child != "" && k.child != child {
			continue
		}
		switch k.kind {
		case kindScalar:
			scalars = append(scalars, s)
		case kindHistCount:
			counts = append(counts, s)
		}
	}
	if len(scalars) > 0 {
		return scalars
	}
	return counts
}

func kindName(k kind) string {
	switch k {
	case kindHistCount:
		return "count"
	case kindHistSum:
		return "sum"
	case kindHistBucket:
		return "bucket"
	}
	return ""
}

// rangePoints copies the series over [from, to], stitched across
// tiers: each tier contributes only the span older than the earliest
// sample of any finer tier, so results use the best resolution
// available at every age.
func (s *series) rangePoints(from, to int64) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	spans := make([][]Point, 0, len(s.tiers))
	total := 0
	hi := to
	for i := range s.tiers { // finest first: each caps the coarser ones
		pts := s.tiers[i].pts
		if len(pts) == 0 {
			continue
		}
		if seg := window(pts, from, hi); len(seg) > 0 {
			spans = append(spans, seg)
			total += len(seg)
		}
		if pts[0].T-1 < hi {
			hi = pts[0].T - 1
		}
	}
	out := make([]Point, 0, total)
	for i := len(spans) - 1; i >= 0; i-- { // coarsest first: segments ascend in time
		out = append(out, spans[i]...)
	}
	return out
}

// window returns the samples of pts (ascending) with from <= T <= to.
func window(pts []Point, from, to int64) []Point {
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].T >= from })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].T > to })
	if lo >= hi {
		return nil
	}
	return pts[lo:hi]
}

// ratePoints converts a cumulative series to a per-second derivative.
// A drop (counter reset) restarts from zero rather than going negative.
func ratePoints(pts []Point) []Point {
	if len(pts) < 2 {
		return nil
	}
	out := make([]Point, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dt := float64(pts[i].T-pts[i-1].T) / 1000
		if dt <= 0 {
			continue
		}
		dv := pts[i].V - pts[i-1].V
		if dv < 0 {
			dv = pts[i].V
		}
		out = append(out, Point{T: pts[i].T, V: dv / dt})
	}
	return out
}

// aggregate collapses label-vector children pointwise by timestamp —
// valid because one scrape stamps every series with the same instant.
func aggregate(family, agg string, in []SeriesData) SeriesData {
	acc := make(map[int64]float64)
	for _, sd := range in {
		for _, p := range sd.Points {
			if agg == "max" {
				if cur, ok := acc[p.T]; !ok || p.V > cur {
					acc[p.T] = p.V
				}
			} else {
				acc[p.T] += p.V
			}
		}
	}
	pts := make([]Point, 0, len(acc))
	for t, v := range acc {
		pts = append(pts, Point{T: t, V: v})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	return SeriesData{Family: family, Kind: agg, Points: pts}
}

// Increase returns how much a cumulative series grew over [from, to]
// (counter-reset aware) plus the actual span covered by data. When the
// window reaches back before recorded history, the span shrinks to
// what exists — callers dividing by dt get honest rates during warmup
// instead of silence.
func (db *DB) Increase(family, child string, from, to time.Time) (delta, dtSeconds float64, ok bool) {
	matched := db.match(family, child)
	if len(matched) == 0 {
		return 0, 0, false
	}
	lo, hi := from.UnixMilli(), to.UnixMilli()
	var any bool
	var spanLo, spanHi int64 = math.MaxInt64, math.MinInt64
	for _, s := range matched {
		pts := s.rangePoints(lo, hi)
		if len(pts) < 2 {
			continue
		}
		any = true
		for i := 1; i < len(pts); i++ {
			dv := pts[i].V - pts[i-1].V
			if dv < 0 {
				dv = pts[i].V
			}
			delta += dv
		}
		if pts[0].T < spanLo {
			spanLo = pts[0].T
		}
		if pts[len(pts)-1].T > spanHi {
			spanHi = pts[len(pts)-1].T
		}
	}
	if !any || spanHi <= spanLo {
		return 0, 0, false
	}
	return delta, float64(spanHi-spanLo) / 1000, true
}

// QuantileOverTime estimates the q-quantile of a histogram family's
// observations that occurred within [from, to]: each bucket's increase
// over the window forms the distribution, interpolated by
// metrics.BucketQuantile like every other histogram quantile.
func (db *DB) QuantileOverTime(family, child string, q float64, from, to time.Time) (float64, bool) {
	db.mu.RLock()
	bounds := db.bounds[family]
	var buckets []*series
	for k, s := range db.series {
		if k.family == family && k.kind == kindHistBucket && (child == "" || k.child == child) {
			buckets = append(buckets, s)
		}
	}
	db.mu.RUnlock()
	if len(bounds) == 0 || len(buckets) == 0 {
		return 0, false
	}
	idx := boundIndex(bounds)
	counts := make([]float64, len(bounds)+1)
	lo, hi := from.UnixMilli(), to.UnixMilli()
	for _, s := range buckets {
		i, ok := idx[s.key.bound]
		if !ok {
			continue
		}
		last, ok := s.valueAt(hi)
		if !ok {
			continue // series born after the window
		}
		// Baseline: the bucket's value just before the window opened. A
		// series first occupied inside the window baselines at zero.
		base, ok := s.valueAt(lo)
		if !ok {
			base = 0
		}
		d := last - base
		if d < 0 {
			d = last // counter reset inside the window: recount from zero
		}
		if d > 0 {
			counts[i] += d
		}
	}
	return weightQuantile(bounds, counts, q)
}

// valueAt returns the series' latest sample at or before t, preferring
// the finest tier whose history reaches back that far.
func (s *series) valueAt(t int64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.tiers {
		pts := s.tiers[i].pts
		if j := sort.Search(len(pts), func(j int) bool { return pts[j].T > t }); j > 0 {
			return pts[j-1].V, true
		}
	}
	return 0, false
}

// boundIndex maps formatted bucket-bound keys (as the registry renders
// them, "+inf" for overflow) to positional slots.
func boundIndex(bounds []float64) map[string]int {
	idx := make(map[string]int, len(bounds)+1)
	for i, b := range bounds {
		idx[fmt.Sprintf("%g", b)] = i
	}
	idx["+inf"] = len(bounds)
	return idx
}

// weightQuantile applies metrics.BucketQuantile to positional float
// bucket weights (len(bounds)+1 slots, overflow last: windowed
// increases); ok is false when no bucket carries weight.
func weightQuantile(bounds, counts []float64, q float64) (v float64, ok bool) {
	total := 0.0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0, false
	}
	return metrics.BucketQuantile(q, bounds, func(i int) float64 { return counts[i] }, total, 0), true
}
