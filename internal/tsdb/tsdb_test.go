package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/metrics"
)

var t0 = time.UnixMilli(1_700_000_000_000)

// testGauge is a gauge the test sets by hand: shipped code registers
// scalar gauges as GaugeFunc over the state they read, so a fixture does
// the same over an atomic float.
type testGauge struct{ bits atomic.Uint64 }

func (g *testGauge) Set(v float64)  { g.bits.Store(math.Float64bits(v)) }
func (g *testGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// settableGauge registers a testGauge under name.
func settableGauge(reg *metrics.Registry, name string) *testGauge {
	g := &testGauge{}
	reg.GaugeFunc(name, g.Value)
	return g
}

func TestScrapeFlattensRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("events_total")
	g := settableGauge(reg, "depth")
	reg.GaugeFunc("computed", func() float64 { return 7.5 })
	vec := reg.CounterVec("packets_total", "outcome")

	db := New(Options{Registry: reg})
	ctr.Add(10)
	g.Set(3)
	vec.With("pass").Add(4)
	vec.With("drop").Add(1)
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

	fams := map[string]bool{}
	for k := range db.series {
		fams[k.family] = true
	}
	if len(fams) != 4 {
		t.Fatalf("stored families %v, want 4 entries", fams)
	}
	st := db.Stats()
	if st.Scrapes != 2 || st.Series == 0 || st.Bytes == 0 {
		t.Fatalf("Stats() = %+v", st)
	}
}

func TestTiersDownsampleAndEvict(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("c")
	db := New(Options{
		Registry: reg,
		tiers: []tier{
			{resolution: 0, retention: 30 * time.Second},
			{resolution: 10 * time.Second, retention: 10 * time.Minute},
		},
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

	// Each tier holds exactly its retention: the raw tier 30s of 1s
	// samples (90s..120s), the 10s tier all 13 samples of the 2 minutes.
	st := db.Stats()
	if st.RawSamples != 31 || st.Samples-st.RawSamples != 13 {
		t.Fatalf("tiers hold %d raw and %d 10s samples after retention, want 31 and 13",
			st.RawSamples, st.Samples-st.RawSamples)
	}
}

// TestCompressionBudget is the storage budget: 24h of synthetic history
// for 1k series must fit in 64 MiB, counted as the sample capacity the
// tiers hold (not just the samples in use). Per-series storage is
// independent across series, so we run a representative 100-series mix
// for the full 24h and scale.
func TestCompressionBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("24h synthetic history is slow; skipped with -short")
	}
	reg := metrics.NewRegistry()
	counters := reg.CounterVec("flows_total", "link")
	const (
		nCounters = 60
		nGauges   = 40
		seconds   = 86_400
	)
	db := New(Options{Registry: reg}) // defaultTiers: the shipped layout
	rng := rand.New(rand.NewSource(1))
	rates := make([]int64, nCounters)
	for i := range rates {
		rates[i] = int64(1 + rng.Intn(2000))
	}
	links := make([]string, nCounters)
	for i := range links {
		links[i] = fmt.Sprint(i)
	}
	gauges := make([]*testGauge, nGauges)
	for i := range gauges {
		gauges[i] = settableGauge(reg, fmt.Sprintf("depth_%d", i))
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
			for i, g := range gauges {
				g.Set(float64(rng.Intn(64)) + float64(i))
			}
		}
		db.ScrapeOnce(t0.Add(time.Duration(sec) * time.Second))
	}
	st := db.Stats()
	// Per-series storage is independent of the series count: extrapolate
	// this 100-series day to the 1k-series acceptance budget.
	perSeries := float64(st.Bytes) / float64(nCounters+nGauges)
	extrapolated := perSeries * 1000
	if limit := float64(64 << 20); extrapolated > limit {
		t.Fatalf("24h x 1k series extrapolates to %.1f MiB, budget 64 MiB", extrapolated/(1<<20))
	}
	t.Logf("%d samples in a capacity of %d; 1k series/24h extrapolates to %.2f MiB (all tiers)",
		st.Samples, st.Bytes/16, extrapolated/(1<<20))
}

// TestConcurrentScrapeQuerySnapshot exercises scrape + query + snapshot
// from racing goroutines; run with -race (scripts/ci.sh does).
func TestConcurrentScrapeQuerySnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("events_total")
	vec := reg.CounterVec("packets_total", "outcome")

	db := New(Options{Registry: reg})
	const iters = 400
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ctr.Inc()
			vec.With("pass").Add(2)
			db.ScrapeOnce(t0.Add(time.Duration(i) * time.Second))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.Query(Query{Series: "packets_total", From: t0, To: t0.Add(time.Hour), Rate: true, Agg: "sum"})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			at := t0.Add(time.Duration(i) * time.Second)
			db.Increase("packets_total", "", t0, at)
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

// TestStopWaitsForScrape blocks a scrape inside a gauge's read and checks
// that Stop does not return until that scrape has finished: a caller that
// stops the DB and then reuses the registry must not race a late scrape.
func TestStopWaitsForScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	reg.GaugeFunc("blocking", func() float64 {
		once.Do(func() { close(entered) })
		<-release
		return 1
	})
	db := New(Options{Registry: reg, Interval: time.Millisecond})
	db.Start()
	<-entered
	stopped := make(chan struct{})
	go func() {
		db.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a scrape was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after the scrape finished")
	}
}
