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

// ingestPipeline builds the pipeline the ingest benchmarks drive: queues
// deep enough that nothing sheds, and a round threshold no run reaches,
// so the controller ticks but never reconfigures.
func ingestPipeline(b *testing.B, shed bool, reg *metrics.Registry) *Pipeline {
	p, err := New(testAttribution(), Config{
		Workers:         4,
		QueueDepth:      1 << 16,
		BatchSize:       256,
		FlushInterval:   10 * time.Millisecond,
		EvalInterval:    10 * time.Millisecond,
		MinRoundPackets: 1 << 40,
		Shed:            shed,
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
// scraper. Scrapes only read the atomics the hot path writes, so anything
// beyond 5% means the scraper is contending rather than observing. Each
// sample is long enough to overlap a dozen scrapes, and the workers
// drain it before the other side's sample starts.
func BenchmarkIngestScrapeBudget(b *testing.B) {
	reg := metrics.NewRegistry()
	p := ingestPipeline(b, false, reg)
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
		ns = stats.MinOf(7,
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

// BenchmarkStreamIngestShed compares the ingest hot path with load
// shedding off (the default: one predicted branch) and on, queues deep
// enough that nothing is actually dropped. The pair bounds the
// fault-tolerance overhead on the ingest path.
func BenchmarkStreamIngestShed(b *testing.B) {
	for _, shed := range []bool{false, true} {
		name := "shed-off"
		if shed {
			name = "shed-on"
		}
		b.Run(name, func(b *testing.B) {
			p := ingestPipeline(b, shed, nil)
			b.ResetTimer()
			ingestN(p, b.N)
			b.StopTimer()
			p.Close()
			if p.Dropped() != 0 {
				b.Fatalf("benchmark dropped %d events; deepen the queue", p.Dropped())
			}
		})
	}
}
