package tsdb

import (
	"math"
	"sort"
	"time"
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
	Kind   string  `json:"kind,omitempty"` // "" per series, "sum"/"max" for an aggregate
	Points []Point `json:"points"`
}

// Query selects a range from one metric family.
type Query struct {
	Series   string    // metric family name
	Child    string    // exact "label=value,.." child; "" selects all
	From, To time.Time // inclusive range
	Rate     bool      // per-second derivative (counter-reset aware)
	Agg      string    // "", "sum", "max" — collapse matched children
}

// Query runs q and returns the matched series, children sorted by key.
// Unknown families return an empty result, not an error — the caller
// (the /query endpoint, the dashboard poller) treats "no data yet" and
// "no such series" identically.
func (db *DB) Query(q Query) []SeriesData {
	from, to := q.From.UnixMilli(), q.To.UnixMilli()
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
		out = append(out, SeriesData{Family: s.key.family, Child: s.key.child, Points: pts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Child < out[j].Child })
	if q.Agg != "" && len(out) > 0 {
		return []SeriesData{aggregate(q.Series, q.Agg, out)}
	}
	return out
}

// match selects a family's series: the plain metric, or its vector
// children (every one when child == "").
func (db *DB) match(family, child string) []*series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []*series
	for k, s := range db.series {
		if k.family == family && (child == "" || k.child == child) {
			out = append(out, s)
		}
	}
	return out
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
