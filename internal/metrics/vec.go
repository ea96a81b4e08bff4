package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// A metric vector is a family of child metrics sharing one name and one
// ordered set of label names, keyed by label values — the dimensional
// model Prometheus scrapes ("probe_sent_total{link="3"}").
// Lookups on the observe path are lock-free: the children live in a
// read-mostly map behind an atomic pointer, and With builds its lookup
// key in a stack buffer, so resolving an already-seen label set costs a
// map read and zero allocations. First use of a new label set takes a
// mutex and copies the map (copy-on-write), which is fine for label
// sets with bounded cardinality (links, shards, outcomes, configs).

// vecChild pairs a child metric with the label values that key it, in
// label-name order, so exporters can render the series without parsing
// the map key back apart.
type vecChild[M any] struct {
	values []string
	metric M
}

// vec is the label-indexing core shared by CounterVec and HistogramVec.
type vec[M any] struct {
	name   string
	labels []string
	mk     func() M
	ptr    atomic.Pointer[map[string]*vecChild[M]]
	// hot caches the most recently resolved single-label child. Observe
	// paths are usually monotone in their label (a flood arrives on one
	// link; most border packets share one outcome), so checking the
	// cached child's value — a pointer-equal string compare when the
	// caller passes the same string each time — skips the map hash
	// entirely. Stale or
	// thrashing caches only cost the compare; the map remains the truth.
	hot atomic.Pointer[vecChild[M]]
	mu  sync.Mutex // guards copy-on-write inserts
}

func newVec[M any](name string, labels []string, mk func() M) *vec[M] {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: vector %q needs at least one label", name))
	}
	for _, l := range labels {
		if l == "" {
			panic(fmt.Sprintf("metrics: vector %q has an empty label name", name))
		}
	}
	v := &vec[M]{name: name, labels: append([]string(nil), labels...), mk: mk}
	m := make(map[string]*vecChild[M])
	v.ptr.Store(&m)
	return v
}

// keySep separates label values inside a child key. 0xff cannot appear
// in valid UTF-8 label values, so joined keys cannot collide.
const keySep = '\xff'

// with resolves the child metric for the given label values, creating
// it on first use. The hot path (seen label set) performs no
// allocation: the key is assembled in a stack buffer and the map is
// indexed with a string conversion the compiler does not materialize.
func (v *vec[M]) with(values []string) M {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: vector %q wants %d label values, got %d",
			v.name, len(v.labels), len(values)))
	}
	if len(values) == 1 {
		// Single-label vectors (the common per-link/per-shard case) skip
		// key assembly entirely: the value is the key.
		val := values[0]
		if c := v.hot.Load(); c != nil && c.values[0] == val {
			return c.metric
		}
		if c, ok := (*v.ptr.Load())[val]; ok {
			v.hot.Store(c)
			return c.metric
		}
		return v.create(val, values)
	}
	var arr [96]byte
	key := arr[:0]
	for i, val := range values {
		if i > 0 {
			key = append(key, keySep)
		}
		key = append(key, val...)
	}
	m := *v.ptr.Load()
	if c, ok := m[string(key)]; ok {
		return c.metric
	}
	return v.create(string(key), values)
}

// create inserts a child under the mutex, copy-on-write. Double-checks
// after acquiring the lock so racing first observers agree on one child.
func (v *vec[M]) create(key string, values []string) M {
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.ptr.Load()
	if c, ok := old[key]; ok {
		return c.metric
	}
	next := make(map[string]*vecChild[M], len(old)+1)
	for k, c := range old {
		next[k] = c
	}
	c := &vecChild[M]{values: append([]string(nil), values...), metric: v.mk()}
	next[key] = c
	v.ptr.Store(&next)
	return c.metric
}

// children returns the current child set sorted by label values, for
// deterministic exposition.
func (v *vec[M]) children() []*vecChild[M] {
	m := *v.ptr.Load()
	out := make([]*vecChild[M], 0, len(m))
	for _, c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// childKey renders a child's identity as "label=value,label=value" — the
// key the JSON export and watch rules address children by.
func childKey(labels, values []string) string {
	n := 0
	for i := range labels {
		n += len(labels[i]) + len(values[i]) + 2
	}
	b := make([]byte, 0, n)
	for i := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = append(b, values[i]...)
	}
	return string(b)
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	*vec[*Counter]
}

// With returns the counter for the label values (in label-name order),
// creating it on first use. Zero allocations for a seen label set.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// Snapshot returns current child values keyed by "label=value,..".
func (v *CounterVec) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, c := range v.children() {
		out[childKey(v.labels, c.values)] = c.metric.Value()
	}
	return out
}

// HistogramVec is a family of histograms sharing one bucket layout,
// keyed by label values.
type HistogramVec struct {
	*vec[*Histogram]
}

// With returns the histogram for the label values, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }

// Snapshot returns current child snapshots keyed by "label=value,..".
func (v *HistogramVec) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, c := range v.children() {
		out[childKey(v.labels, c.values)] = c.metric.Snapshot()
	}
	return out
}

// CounterVec returns the named counter vector, creating it with the
// label names on first use (label names are fixed at first
// registration; later lookups must pass a name registered as a
// CounterVec or the registry panics, like every other kind mismatch).
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return register(r, name, func() *CounterVec {
		return &CounterVec{newVec(name, labels, func() *Counter { return &Counter{} })}
	})
}

// HistogramVec returns the named histogram vector, creating it with the
// label names and bucket bounds on first use (bounds are ignored on
// later lookups, like Registry.Histogram).
func (r *Registry) HistogramVec(name string, labels []string, bounds ...float64) *HistogramVec {
	return register(r, name, func() *HistogramVec {
		return &HistogramVec{newVec(name, labels, func() *Histogram { return NewHistogram(bounds) })}
	})
}
