package tsdb

import (
	"fmt"
	"testing"
	"time"

	"spooftrack/internal/metrics"
)

// benchRegistry builds a registry shaped like spooftrackd's, from
// families the daemon registers: plain counters and a gauge, labeled
// vectors, and a histogram.
func benchRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("stream_events_total").Add(123456)
	reg.Counter("stream_batches_total").Add(17)
	settableGauge(reg, "stream_degraded").Set(1)
	links := reg.CounterVec("probe_sent_total", "link")
	for i := 0; i < 16; i++ {
		links.With(fmt.Sprint(i)).Add(int64(1000 * (i + 1)))
	}
	out := reg.CounterVec("amp_border_packets_total", "outcome")
	out.With("pass").Add(90000)
	out.With("drop").Add(1200)
	h := reg.Histogram("stream_flush_lag_seconds")
	for i := 0; i < 64; i++ {
		h.Observe(float64(i%17) * 0.003)
	}
	return reg
}

// BenchmarkTsdbScrape measures one full registry scrape-and-append
// cycle — the per-tick overhead the engine adds to a running daemon.
func BenchmarkTsdbScrape(b *testing.B) {
	db := New(Options{Registry: benchRegistry()})
	base := time.UnixMilli(1_700_000_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ScrapeOnce(base.Add(time.Duration(i) * time.Second))
	}
}

// BenchmarkTsdbQueryRange measures a rate() range query over a 2h
// window of 1s samples — the /query and burn-rate evaluation hot path.
func BenchmarkTsdbQueryRange(b *testing.B) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("stream_events_total")
	db := New(Options{Registry: reg, tiers: []tier{{resolution: 0, retention: 3 * time.Hour}}})
	base := time.UnixMilli(1_700_000_000_000)
	const n = 7200
	for i := 0; i <= n; i++ {
		ctr.Add(5000)
		db.ScrapeOnce(base.Add(time.Duration(i) * time.Second))
	}
	q := Query{Series: "stream_events_total", From: base, To: base.Add(n * time.Second), Rate: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := db.Query(q); len(got) != 1 {
			b.Fatalf("query matched %d series", len(got))
		}
	}
}
