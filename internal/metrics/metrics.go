// Package metrics is a dependency-free instrumentation kit for the
// live attribution pipeline: lock-free counters, gauges computed on
// demand, fixed-bucket histograms, and an expvar-style JSON export that
// cmd/spooftrackd serves over HTTP. Hot-path operations (Counter.Add,
// Histogram.Observe) are single atomic ops — safe to call from every
// packet-processing goroutine.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Histogram accumulates observations into fixed buckets. Buckets are
// defined by their inclusive upper bounds; one implicit overflow bucket
// catches everything beyond the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sumBig atomic.Uint64 // float64 bits, CAS-accumulated
	minBig atomic.Uint64 // float64 bits, CAS-lowered; +Inf until first sample
	maxBig atomic.Uint64 // float64 bits, CAS-raised; -Inf until first sample
}

// NewHistogram builds a histogram with the given ascending upper
// bounds. Use DefBuckets when in doubt.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must be ascending")
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.minBig.Store(math.Float64bits(math.Inf(1)))
	h.maxBig.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// DefBuckets is a decade-spanning default (powers of ~3 from 1e-5 up),
// suitable for latencies in seconds or small batch sizes alike.
var DefBuckets = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
	0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.minBig.Load()
		if v >= math.Float64frombits(old) || h.minBig.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBig.Load()
		if v <= math.Float64frombits(old) || h.maxBig.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.sumBig.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBig.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBig.Load()) }

// Min returns the smallest observation (0 with no samples).
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBig.Load())
}

// Max returns the largest observation (0 with no samples).
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBig.Load())
}

// Mean returns the average observation (0 with no samples).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0..1) of the observations so far;
// see bucketQuantile for the interpolation rule.
func (h *Histogram) Quantile(q float64) float64 {
	return bucketQuantile(q, h.bounds, func(i int) float64 { return float64(h.counts[i].Load()) },
		float64(h.Count()), h.Max())
}

// bucketQuantile estimates the q-quantile (0..1) of a bucketed
// distribution by linear interpolation within the containing bucket.
// bounds are the finite buckets' ascending upper bounds and count(i)
// the weight of the bucket ending at bounds[i]; total is the weight the
// rank is taken over, overflow (+inf) bucket included. Empty buckets
// advance the interpolation base, and a rank that falls in the overflow
// bucket clamps to the last bound, so that bucket's own weight is never
// read. No weight answers 0; a layout with no bounds (possible only by
// constructing a zero Histogram directly — NewHistogram substitutes
// DefBuckets) answers max, the largest observation, rather than
// indexing an empty bounds slice.
func bucketQuantile(q float64, bounds []float64, count func(i int) float64, total, max float64) float64 {
	if total == 0 {
		return 0
	}
	if len(bounds) == 0 {
		return max
	}
	rank := q * total
	acc, lo := 0.0, 0.0
	for i, hi := range bounds {
		n := count(i)
		if n > 0 && acc+n >= rank {
			return lo + (rank-acc)/n*(hi-lo)
		}
		acc += n
		lo = hi
	}
	return bounds[len(bounds)-1]
}

// HistogramSnapshot is a point-in-time view of a histogram, the shape
// exporters marshal. Grabbing it is lock-free (each field is an atomic
// read), so export paths can take snapshots without stalling observers.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Mean    float64          `json:"mean"`
	P50     float64          `json:"p50"`
	P99     float64          `json:"p99"`
	Buckets map[string]int64 `json:"buckets"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	buckets := make(map[string]int64, len(h.counts))
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			key := "+inf"
			if i < len(h.bounds) {
				key = fmt.Sprintf("%g", h.bounds[i])
			}
			buckets[key] = n
		}
	}
	return HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Min:     h.Min(),
		Max:     h.Max(),
		Mean:    h.Mean(),
		P50:     h.Quantile(0.50),
		P99:     h.Quantile(0.99),
		Buckets: buckets,
	}
}

// Registry names and exports a set of metrics. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use;
// Counter and vector lookups are get-or-create and cheap enough
// to call once at setup, not per event.
type Registry struct {
	mu    sync.RWMutex
	order []string
	vars  map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]any)}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, func() *Counter { return &Counter{} })
}

// GaugeFunc is a gauge whose value is computed on demand — for state
// owned elsewhere (coverage, a degraded flag), so it is never stale.
// fn must be safe for concurrent use.
type GaugeFunc struct {
	fn func() float64
}

// Value evaluates the gauge.
func (g *GaugeFunc) Value() float64 { return g.fn() }

// GaugeFunc registers a computed gauge under name. The function bound on
// first registration wins; later calls with the same name return the
// existing gauge unchanged.
func (r *Registry) GaugeFunc(name string, fn func() float64) *GaugeFunc {
	return register(r, name, func() *GaugeFunc { return &GaugeFunc{fn: fn} })
}

func register[T any](r *Registry, name string, mk func() T) T {
	r.mu.RLock()
	v, ok := r.vars[name]
	r.mu.RUnlock()
	if ok {
		t, good := v.(T)
		if !good {
			panic(fmt.Sprintf("metrics: %q registered with a different type", name))
		}
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		t, good := v.(T)
		if !good {
			panic(fmt.Sprintf("metrics: %q registered with a different type", name))
		}
		return t
	}
	t := mk()
	r.vars[name] = t
	r.order = append(r.order, name)
	return t
}

// Snapshot returns every metric's current value, keyed by name:
// counters as int64, gauges as float64, histograms as HistogramSnapshot
// values. The registry lock is held only to copy the variable table;
// values (including histogram traversal and GaugeFunc evaluation) are
// read afterwards, so a slow gauge function or a wide histogram cannot
// stall registrations.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	vars := make(map[string]any, len(r.vars))
	for name, v := range r.vars {
		vars[name] = v
	}
	r.mu.RUnlock()
	out := make(map[string]any, len(vars))
	for name, v := range vars {
		switch m := v.(type) {
		case *Counter:
			out[name] = m.Value()
		case *GaugeFunc:
			out[name] = m.Value()
		case *Histogram:
			out[name] = m.Snapshot()
		case *CounterVec:
			out[name] = m.Snapshot()
		case *HistogramVec:
			out[name] = m.Snapshot()
		}
	}
	return out
}

// timeNow is the export clock, a variable so tests comparing two
// serializations of one registry can pin it.
var timeNow = time.Now

// WriteJSON emits the registry expvar-style: one JSON object, metrics
// in registration order, led by a "ts" unix-seconds capture timestamp
// so exported snapshots are self-describing when archived.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	r.mu.RUnlock()
	snap := r.Snapshot()
	if _, err := fmt.Fprintf(w, "{\n\"ts\": %d", timeNow().Unix()); err != nil {
		return err
	}
	for _, name := range names {
		v, ok := snap[name]
		if !ok {
			continue
		}
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, ",\n%q: %s", name, data); err != nil {
			return err
		}
	}
	_, err := fmt.Fprint(w, "\n}\n")
	return err
}

// Handler serves the registry at /metrics, content-negotiated: JSON by
// default (byte-compatible with the pre-Prometheus export, so existing
// consumers are unaffected), Prometheus text format when the client
// asks for it via Accept: text/plain (what promtool and the Prometheus
// scraper send) or ?format=prometheus. ?format=json forces JSON.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if wantsPrometheus(req) {
			w.Header().Set("Content-Type", PrometheusContentType)
			_ = r.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}
