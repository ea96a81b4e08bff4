package tsdb

import (
	"fmt"
	"testing"
	"time"

	"spooftrack/internal/metrics"
)

// benchRegistry builds a registry shaped like spooftrackd's: the ten
// families the daemon registers, with the 23 series its /metrics shows
// 10 s into the seed-42 demo (no probe lost yet, no border drop).
func benchRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("stream_events_total").Add(123456)
	reg.Counter("stream_settle_excluded_total").Add(251)
	settableGauge(reg, "stream_degraded").Set(1)
	pkts := reg.CounterVec("amp_honeypot_packets_total", "link")
	bytes := reg.CounterVec("amp_honeypot_bytes_total", "link")
	for i := 1; i <= 5; i++ {
		pkts.With(fmt.Sprint(i)).Add(int64(100 * i))
		bytes.With(fmt.Sprint(i)).Add(int64(2400 * i))
	}
	reg.CounterVec("amp_honeypot_requests_total", "outcome").With("accepted").Add(3960)
	reg.CounterVec("amp_border_packets_total", "outcome").With("forwarded").Add(3960)
	sent := reg.CounterVec("probe_sent_total", "link")
	for i := 0; i < 7; i++ {
		sent.With(fmt.Sprint(i)).Add(int64(1000 * (i + 1)))
	}
	reg.CounterVec("probe_lost_total", "link")
	settableGauge(reg, "probe_coverage").Set(0.8)
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
