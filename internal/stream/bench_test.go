package stream

import (
	"net/netip"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/stats"
	"spooftrack/internal/tsdb"
)

// ingestPipeline builds the pipeline the ingest benchmark drives: a
// round threshold no run reaches, so the controller ticks but never
// reconfigures.
func ingestPipeline(b *testing.B, reg *metrics.Registry) *Pipeline {
	p, err := New(testAttribution(), Config{
		Workers:         4,
		FlushInterval:   10 * time.Millisecond,
		EvalInterval:    10 * time.Millisecond,
		MinRoundPackets: 1 << 40,
		Metrics:         reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// ingestN feeds n copies of one event, cycling the ingress link.
func ingestN(p *Pipeline, n int) {
	ev := amp.Event{
		Time:       time.Now(),
		SpoofedSrc: netip.AddrFrom4([4]byte{198, 51, 100, 7}),
		WireLen:    24,
	}
	links := p.in.attr.NumLinks
	for i := 0; i < n; i++ {
		ev.IngressLink = uint8(i % links)
		p.Ingest(ev)
	}
}

// BenchmarkIngestScrapeBudget gates the metric-history engine's tax on
// the packet path: ingest while a tsdb scrapes the pipeline's registry at
// a 1ms cadence (1000x production) may cost at most 1.05x ingest with no
// scraper. Scrapes only read the atomics the counter merges write, so
// anything beyond 5% means the scraper is contending rather than
// observing. Each sample is long enough to overlap a dozen scrapes, and
// it is merged into the round before the other side's sample starts. A sample is ~20 ms,
// so one scheduler hiccup on a 2-vCPU machine moves it past the budget:
// with 7 rounds ten runs on an unchanged tree read 0.91–1.17 and failed
// twice, with 81 they read 0.93–1.03.
func BenchmarkIngestScrapeBudget(b *testing.B) {
	reg := metrics.NewRegistry()
	p := ingestPipeline(b, reg)
	defer p.Close()
	const n = 400_000
	ingested := int64(0)
	sample := func(scrape bool) float64 {
		var db *tsdb.DB
		if scrape {
			db = tsdb.New(tsdb.Options{Registry: reg, Interval: time.Millisecond})
			db.Start()
		}
		start := time.Now()
		ingestN(p, n)
		ns := float64(time.Since(start).Nanoseconds()) / n
		if db != nil {
			db.Stop()
		}
		ingested += n
		for p.TotalEvents() < ingested {
			time.Sleep(200 * time.Microsecond)
		}
		return ns
	}
	var ns []float64
	for i := 0; i < b.N; i++ {
		ns = stats.MinOf(81,
			func() float64 { return sample(false) },
			func() float64 { return sample(true) })
	}
	ratio := ns[1] / ns[0]
	b.ReportMetric(ns[0], "off-ns/event")
	b.ReportMetric(ns[1], "on-ns/event")
	b.ReportMetric(ratio, "on/off")
	if ratio > 1.05 {
		b.Fatalf("ingest with live scraping costs %.3fx the scrape-off baseline, budget is 1.05x", ratio)
	}
}
