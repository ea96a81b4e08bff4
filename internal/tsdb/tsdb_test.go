package tsdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spooftrack/internal/metrics"
)

var t0 = time.UnixMilli(1_700_000_000_000)

func TestScrapeFlattensRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("events_total")
	g := reg.Gauge("depth")
	reg.GaugeFunc("computed", func() float64 { return 7.5 })
	vec := reg.CounterVec("packets_total", "outcome")
	h := reg.Histogram("lag_seconds", 0.01, 0.1, 1)

	db := New(Options{Registry: reg})
	ctr.Add(10)
	g.Set(3)
	vec.With("pass").Add(4)
	vec.With("drop").Add(1)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2)
	db.ScrapeOnce(t0)
	ctr.Add(5)
	vec.With("pass").Add(6)
	db.ScrapeOnce(t0.Add(time.Second))

	got := db.Query(Query{Series: "events_total", From: t0, To: t0.Add(time.Minute)})
	if len(got) != 1 || len(got[0].Points) != 2 {
		t.Fatalf("events_total query = %+v, want 1 series x 2 points", got)
	}
	if got[0].Points[0].V != 10 || got[0].Points[1].V != 15 {
		t.Fatalf("events_total values = %+v, want 10 then 15", got[0].Points)
	}

	got = db.Query(Query{Series: "packets_total", From: t0, To: t0.Add(time.Minute)})
	if len(got) != 2 {
		t.Fatalf("packets_total matched %d children, want 2", len(got))
	}
	if got[0].Child != "outcome=drop" || got[1].Child != "outcome=pass" {
		t.Fatalf("children out of order: %q, %q", got[0].Child, got[1].Child)
	}

	// Histogram families answer rate/raw queries via their count series.
	got = db.Query(Query{Series: "lag_seconds", From: t0, To: t0.Add(time.Minute)})
	if len(got) != 1 || got[0].Kind != "count" || got[0].Points[0].V != 3 {
		t.Fatalf("lag_seconds count query = %+v", got)
	}

	fams := map[string]bool{}
	for k := range db.series {
		fams[k.family] = true
	}
	if len(fams) != 5 {
		t.Fatalf("stored families %v, want 5 entries", fams)
	}
	st := db.Stats()
	if st.Scrapes != 2 || st.Series == 0 || st.Bytes == 0 {
		t.Fatalf("Stats() = %+v", st)
	}
}

func TestSnapshotAtReconstruction(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("events_total")
	vec := reg.GaugeVec("load", "shard")
	h := reg.Histogram("lag_seconds", 0.01, 0.1, 1)

	db := New(Options{Registry: reg})
	ctr.Add(5)
	vec.With("0").Set(1.5)
	h.Observe(0.05)
	h.Observe(0.5)
	db.ScrapeOnce(t0)
	ctr.Add(4)
	vec.With("0").Set(2.5)
	vec.With("1").Set(9)
	h.Observe(0.05)
	db.ScrapeOnce(t0.Add(10 * time.Second))

	past := db.SnapshotAt(t0)
	if v, _ := past["events_total"].(float64); v != 5 {
		t.Fatalf("events_total at t0 = %v, want 5", past["events_total"])
	}
	loads, _ := past["load"].(map[string]any)
	if loads == nil || loads["shard=0"] != 1.5 {
		t.Fatalf("load at t0 = %v", past["load"])
	}
	if _, ok := loads["shard=1"]; ok {
		t.Fatalf("shard=1 should not exist at t0: %v", loads)
	}
	hs, ok := past["lag_seconds"].(metrics.HistogramSnapshot)
	if !ok {
		t.Fatalf("lag_seconds at t0 is %T", past["lag_seconds"])
	}
	live := reg.Histogram("lag_seconds").Snapshot()
	if hs.Count != 2 || hs.Buckets["0.1"] != 1 || hs.Buckets["1"] != 1 {
		t.Fatalf("historical histogram = %+v", hs)
	}
	if len(hs.Bounds) != len(live.Bounds) {
		t.Fatalf("bounds not preserved: %v vs %v", hs.Bounds, live.Bounds)
	}

	now := db.SnapshotAt(t0.Add(10 * time.Second))
	if v, _ := now["events_total"].(float64); v != 9 {
		t.Fatalf("events_total at t1 = %v, want 9", now["events_total"])
	}
	hs2 := now["lag_seconds"].(metrics.HistogramSnapshot)
	if hs2.Count != 3 || hs2.P99 != live.P99 {
		t.Fatalf("historical P99 %v != live P99 %v (count %d)", hs2.P99, live.P99, hs2.Count)
	}

	if before := db.SnapshotAt(t0.Add(-time.Hour)); len(before) != 0 {
		t.Fatalf("snapshot before history should be empty, got %v", before)
	}
}

func TestTiersDownsampleAndEvict(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("c")
	db := New(Options{
		Registry: reg,
		Tiers: []Tier{
			{Resolution: 0, Retention: 30 * time.Second},
			{Resolution: 10 * time.Second, Retention: 10 * time.Minute},
		},
		ChunkSamples: 8, // small chunks so eviction is visible
	})
	// Two minutes of 1s scrapes.
	for i := 0; i <= 120; i++ {
		ctr.Add(1)
		db.ScrapeOnce(t0.Add(time.Duration(i) * time.Second))
	}
	end := t0.Add(120 * time.Second)

	// Recent window: raw 1s resolution.
	recent := db.Query(Query{Series: "c", From: end.Add(-10 * time.Second), To: end})
	if len(recent) != 1 || len(recent[0].Points) != 11 {
		t.Fatalf("recent window has %d points, want 11", len(recent[0].Points))
	}

	// Full window: the old range is served by the 10s tier (raw evicted),
	// the last ~30s by the raw tier — so far fewer than 121 points but
	// full coverage.
	full := db.Query(Query{Series: "c", From: t0, To: end})
	if len(full) != 1 {
		t.Fatalf("full query matched %d series", len(full))
	}
	pts := full[0].Points
	if pts[0].T != t0.UnixMilli() {
		t.Fatalf("oldest point %d, want coverage from t0 (%d)", pts[0].T, t0.UnixMilli())
	}
	if pts[len(pts)-1].T != end.UnixMilli() {
		t.Fatalf("newest point %d, want %d", pts[len(pts)-1].T, end.UnixMilli())
	}
	if len(pts) >= 121 || len(pts) < 20 {
		t.Fatalf("stitched result has %d points; want downsampled old range + raw tail", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("points not strictly ascending at %d: %d then %d", i, pts[i-1].T, pts[i].T)
		}
	}

	// Raw tier must have evicted everything older than ~30s+chunk slack.
	st := db.Stats()
	if st.RawSamples > 50 {
		t.Fatalf("raw tier holds %d samples after retention, want <= 50", st.RawSamples)
	}
	if early, ok := db.Earliest(); !ok || !early.Equal(t0) {
		t.Fatalf("Earliest = %v %v, want %v", early, ok, t0)
	}
}

// TestCompressionBudget is the ISSUE acceptance check: 24h of synthetic
// history for 1k series must fit in 64 MiB, with the raw tier costing
// <= 4 bytes/sample. Per-series storage is independent across series,
// so we run a representative 100-series mix for the full 24h and scale.
func TestCompressionBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("24h synthetic history is slow; skipped with -short")
	}
	reg := metrics.NewRegistry()
	counters := reg.CounterVec("flows_total", "link")
	gauges := reg.GaugeVec("depth", "shard")
	const (
		nCounters = 60
		nGauges   = 40
		seconds   = 86_400
	)
	db := New(Options{Registry: reg}) // DefaultTiers: the shipped layout
	rng := rand.New(rand.NewSource(1))
	rates := make([]int64, nCounters)
	for i := range rates {
		rates[i] = int64(1 + rng.Intn(2000))
	}
	links := make([]string, nCounters)
	for i := range links {
		links[i] = fmt.Sprint(i)
	}
	shards := make([]string, nGauges)
	for i := range shards {
		shards[i] = fmt.Sprint(i)
	}
	for sec := 0; sec < seconds; sec++ {
		for i, l := range links {
			// Steady per-link flow with occasional bursts: the paper's
			// spoofed-traffic shape as the honeypot tap sees it.
			d := rates[i]
			if rng.Intn(100) == 0 {
				d *= int64(2 + rng.Intn(8))
			}
			counters.With(l).Add(d)
		}
		if sec%5 == 0 {
			for i, s := range shards {
				gauges.With(s).Set(float64(rng.Intn(64)) + float64(i))
			}
		}
		db.ScrapeOnce(t0.Add(time.Duration(sec) * time.Second))
	}
	st := db.Stats()
	perSample := float64(st.RawBytes) / float64(st.RawSamples)
	if perSample > 4 {
		t.Fatalf("raw tier costs %.2f bytes/sample, budget is 4", perSample)
	}
	// Per-series storage is independent of the series count: extrapolate
	// this 100-series day to the 1k-series acceptance budget.
	perSeries := float64(st.Bytes) / float64(nCounters+nGauges)
	extrapolated := perSeries * 1000
	if limit := float64(64 << 20); extrapolated > limit {
		t.Fatalf("24h x 1k series extrapolates to %.1f MiB, budget 64 MiB (raw %.2f B/sample)",
			extrapolated/(1<<20), perSample)
	}
	t.Logf("raw tier: %.2f bytes/sample; 1k series/24h extrapolates to %.2f MiB (all tiers)",
		perSample, extrapolated/(1<<20))
}

// TestConcurrentScrapeQuerySnapshot exercises scrape + query + snapshot
// from racing goroutines; run with -race (scripts/ci.sh does).
func TestConcurrentScrapeQuerySnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("events_total")
	vec := reg.CounterVec("packets_total", "outcome")
	h := reg.Histogram("lag_seconds", 0.01, 0.1, 1)

	db := New(Options{Registry: reg})
	const iters = 400
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ctr.Inc()
			vec.With("pass").Add(2)
			h.Observe(0.05)
			db.ScrapeOnce(t0.Add(time.Duration(i) * time.Second))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.Query(Query{Series: "packets_total", From: t0, To: t0.Add(time.Hour), Rate: true, Agg: "sum"})
			db.Query(Query{Series: "lag_seconds", From: t0, To: t0.Add(time.Hour), Quantile: 0.99})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.SnapshotAt(t0.Add(time.Duration(i) * time.Second))
			db.Stats()
		}
	}()
	wg.Wait()
}

func TestStartStop(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("events_total").Add(3)
	db := New(Options{Registry: reg, Interval: time.Millisecond})
	db.Start()
	deadline := time.Now().Add(2 * time.Second)
	for db.Stats().Scrapes < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	db.Stop()
	db.Stop() // idempotent
	if db.Stats().Scrapes < 3 {
		t.Fatalf("ticker scraped %d times, want >= 3", db.Stats().Scrapes)
	}
}
