// Package trace is a dependency-free structured tracing kit for the
// campaign pipeline: nestable spans with monotonic timestamps, typed
// attributes, and per-span counters, collected into a lock-sharded
// bounded ring journal and exported as a JSON timeline or in Chrome
// trace-event format (chrome://tracing / Perfetto), so a whole
// campaign — offline deployment, measurement, and the live attribution
// loop — renders as a flame chart.
//
// The package is built around a nil-span fast path: Start returns nil
// when tracing is disabled, and every Span method is a nil-safe no-op,
// so instrumented hot paths pay only an atomic pointer load plus a
// bool load per span site when tracing is off. Instrumentation
// therefore never needs its own enable/disable plumbing:
//
//	sp := trace.Start("bgp.propagate")
//	...
//	sp.Count("events", int64(events))
//	sp.End()
//
// A process-wide default tracer (Global/SetGlobal) keeps wiring out of
// constructor signatures; components that want span nesting across
// package boundaries pass a parent *Span explicitly and derive children
// with StartChild.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Tracer.
type Options struct {
	// Enabled starts the tracer enabled. Disabled tracers hand out nil
	// spans and record nothing.
	Enabled bool
	// JournalCap bounds the number of finished spans retained across all
	// shards; older spans are evicted ring-buffer style. Default 16384.
	JournalCap int
	// Shards is the number of journal shards (rounded up to a power of
	// two; default 8). Sharding keeps concurrent End calls from
	// serializing on one journal lock.
	Shards int
	// OnEnd, if non-nil, is invoked synchronously with every finished
	// span. This is the bridge hook: cmd/spooftrackd uses it to feed
	// span durations into the metrics registry's histograms.
	OnEnd func(SpanRecord)
	// OnEvict, if non-nil, is invoked synchronously with every span
	// evicted from the bounded journal (overwritten before anyone
	// exported it). cmd/spooftrackd counts these per span name, so span
	// loss under load is alertable instead of silent.
	OnEvict func(SpanRecord)
}

// Tracer collects finished spans into a bounded, lock-sharded journal.
// All methods are safe for concurrent use. A nil *Tracer is valid and
// permanently disabled.
type Tracer struct {
	enabled bool // fixed at New
	nextID  atomic.Uint64
	onEnd   func(SpanRecord)
	onEvict func(SpanRecord)
	mask    uint64
	shards  []journalShard
}

type journalShard struct {
	mu      sync.Mutex
	buf     []SpanRecord
	next    int // overwrite cursor once the shard ring is full
	dropped uint64
}

// New builds a tracer.
func New(opts Options) *Tracer {
	capacity := opts.JournalCap
	if capacity <= 0 {
		capacity = 16384
	}
	ns := 1
	for ns < opts.Shards || (opts.Shards <= 0 && ns < 8) {
		ns <<= 1
	}
	per := (capacity + ns - 1) / ns
	t := &Tracer{enabled: opts.Enabled, onEnd: opts.OnEnd, onEvict: opts.OnEvict, mask: uint64(ns - 1), shards: make([]journalShard, ns)}
	for i := range t.shards {
		t.shards[i].buf = make([]SpanRecord, 0, per)
	}
	return t
}

// Start begins a root span on its own track. It returns nil — a valid
// no-op span — when the tracer is nil or disabled.
func (t *Tracer) Start(name string) *Span {
	if t == nil || !t.enabled {
		return nil
	}
	id := t.nextID.Add(1)
	return &Span{t: t, id: id, track: id, name: name, start: time.Now()}
}

// record appends a finished span to its journal shard, evicting the
// oldest record once the shard ring is full.
func (t *Tracer) record(rec SpanRecord) {
	sh := &t.shards[rec.ID&t.mask]
	var evicted SpanRecord
	var didEvict bool
	sh.mu.Lock()
	if len(sh.buf) < cap(sh.buf) {
		sh.buf = append(sh.buf, rec)
	} else if cap(sh.buf) > 0 {
		evicted, didEvict = sh.buf[sh.next], true
		sh.buf[sh.next] = rec
		sh.next++
		if sh.next == cap(sh.buf) {
			sh.next = 0
		}
		sh.dropped++
	}
	sh.mu.Unlock()
	if didEvict && t.onEvict != nil {
		t.onEvict(evicted)
	}
	if t.onEnd != nil {
		t.onEnd(rec)
	}
}

// Snapshot copies the journal, ordered by span start time (ties broken
// by span ID). Safe to call while spans are being recorded.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	var out []SpanRecord
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if len(sh.buf) == cap(sh.buf) && sh.dropped > 0 {
			out = append(out, sh.buf[sh.next:]...)
			out = append(out, sh.buf[:sh.next]...)
		} else {
			out = append(out, sh.buf...)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Dropped returns how many finished spans have been evicted from the
// bounded journal.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += sh.dropped
		sh.mu.Unlock()
	}
	return n
}

// global is the process default tracer, disabled until a main wires one
// in with SetGlobal (or enables the default).
var global atomic.Pointer[Tracer]

func init() { global.Store(New(Options{})) }

// Global returns the process default tracer.
func Global() *Tracer { return global.Load() }

// SetGlobal replaces the process default tracer. Nil is ignored.
func SetGlobal(t *Tracer) {
	if t != nil {
		global.Store(t)
	}
}

// Start begins a root span on the process default tracer; nil (a no-op
// span) when tracing is disabled.
func Start(name string) *Span { return global.Load().Start(name) }

// StartChild begins a span under parent, or — when parent is nil, e.g.
// at an API boundary whose caller did not trace — a root span on the
// process default tracer. This is the idiom for functions accepting an
// optional parent span.
func StartChild(parent *Span, name string) *Span {
	if parent != nil {
		return parent.Child(name)
	}
	return global.Load().Start(name)
}
