package watch

import (
	"sync"
	"testing"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/tsdb"
)

// requests and reqErrors are the counters the burn-rate tests read.
var (
	requests  = Counter{Family: "requests_total"}
	reqErrors = Counter{Family: "request_errors_total"}
)

// TestBurnRateFiresWhereSingleWindowStaysSilent is the ISSUE acceptance
// scenario: a slow 2.5% error ratio burns the 99% objective at 2.5x —
// an incident by any SRE book — while the absolute error rate (25/s)
// sits far under any sane single-window rate threshold. The burn-rate
// rule must fire; the rate rule must stay silent.
func TestBurnRateFiresWhereSingleWindowStaysSilent(t *testing.T) {
	reg := metrics.NewRegistry()
	total := reg.Counter("requests_total")
	errs := reg.Counter("request_errors_total")
	db := tsdb.New(tsdb.Options{Registry: reg})

	// 65 minutes of steady traffic at 1000/s with a 2.5% error ratio,
	// scraped every 15s.
	start := time.Unix(100_000, 0)
	var now time.Time
	for i := 0; i <= 65*4; i++ {
		now = start.Add(time.Duration(i) * 15 * time.Second)
		total.Add(15_000)
		errs.Add(375)
		db.ScrapeOnce(now)
	}

	w := New(Config{
		Registry: reg,
		DB:       db,
		logger:   quietLogger(),
		Rules: []Rule{
			{
				Name:      "error-budget-burn",
				Expr:      Burn(reqErrors, requests, 0.99, 5*time.Minute, time.Hour),
				Op:        Above,
				Threshold: 2,
			},
			{
				Name: "error-rate",
				Expr: Rate(reqErrors, 5*time.Minute),
				Op:   Above, Threshold: 100, // errors/s — 25/s is nowhere near
			},
		},
	})

	fired := w.Evaluate(now)
	if len(fired) != 1 || fired[0].Rule != "error-budget-burn" {
		t.Fatalf("fired = %+v, want exactly the burn-rate rule", fired)
	}
	if fired[0].Value < 2.4 || fired[0].Value > 2.6 {
		t.Fatalf("burn value %v, want ~2.5", fired[0].Value)
	}
	st := w.Status()
	if !st[1].HasData || st[1].Breaching {
		t.Fatalf("single-window rate rule state = %+v, want quiet with data", st[1])
	}
	if st[1].Value < 20 || st[1].Value > 30 {
		t.Fatalf("rate rule value %v, want ~25/s", st[1].Value)
	}
}

// TestBurnRateSlowWindowVetoesSpike: a short error spike saturates the
// fast window but barely moves the slow one — the multi-window rule
// must hold fire (that is its whole point), while a fast-window-only
// variant fires.
func TestBurnRateSlowWindowVetoesSpike(t *testing.T) {
	reg := metrics.NewRegistry()
	total := reg.Counter("requests_total")
	errs := reg.Counter("request_errors_total")
	db := tsdb.New(tsdb.Options{Registry: reg})

	start := time.Unix(200_000, 0)
	var now time.Time
	for i := 0; i <= 60*4; i++ {
		now = start.Add(time.Duration(i) * 15 * time.Second)
		total.Add(15_000)
		if i > 55*4 { // only the last 5 minutes go bad, at 50% errors
			errs.Add(7_500)
		}
		db.ScrapeOnce(now)
	}

	mk := func(name string, windows ...time.Duration) Rule {
		return Rule{
			Name:      name,
			Expr:      Burn(reqErrors, requests, 0.99, windows...),
			Op:        Above,
			Threshold: 10,
		}
	}
	w := New(Config{
		Registry: reg,
		DB:       db,
		logger:   quietLogger(),
		Rules: []Rule{
			mk("burn-both", 5*time.Minute, time.Hour),
			mk("burn-fast-only", 5*time.Minute),
		},
	})
	fired := w.Evaluate(now)
	if len(fired) != 1 || fired[0].Rule != "burn-fast-only" {
		t.Fatalf("fired = %+v, want only the fast-window variant", fired)
	}
	st := w.Status()
	if st[0].Breaching {
		t.Fatal("multi-window rule breached on a 5m spike")
	}
	if !st[0].HasData || st[0].Value > 10 {
		t.Fatalf("multi-window burn = %+v, want slow-window value under threshold", st[0])
	}
}

// TestWindowedRateSmoothsSpikes: a Rate rule averages over its window,
// so a one-tick burst between two adjacent snapshots — 510/s against a
// 100/s threshold — cannot fire it.
func TestWindowedRateSmoothsSpikes(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("dropped_total")
	db := tsdb.New(tsdb.Options{Registry: reg})
	w := New(Config{
		Registry: reg,
		DB:       db,
		logger:   quietLogger(),
		Rules: []Rule{{
			Name: "drop-rate", Expr: Rate(Counter{Family: "dropped_total"}, time.Minute),
			Op: Above, Threshold: 100,
		}},
	})
	start := time.Unix(300_000, 0)
	var now time.Time
	for i := 0; i <= 120; i++ { // 2 minutes of steady 10/s
		now = start.Add(time.Duration(i) * time.Second)
		ctr.Add(10)
		db.ScrapeOnce(now)
		w.Evaluate(now)
	}
	ctr.Add(500) // one-tick burst
	now = now.Add(time.Second)
	db.ScrapeOnce(now)
	if fired := w.Evaluate(now); len(fired) != 0 {
		t.Fatalf("windowed watchdog fired %+v on a one-tick burst", fired)
	}
	if st := w.Status(); !st[0].HasData || st[0].Value > 20 {
		t.Fatalf("windowed rate = %+v, want ~18/s over the minute", st[0])
	}
}

// TestBreachRecoveryRebreach covers the full hysteresis cycle the ISSUE
// calls out: breach, recover, then breach again — the second incident
// must re-fire (with a fresh For streak) and recount in Breaches().
func TestBreachRecoveryRebreach(t *testing.T) {
	reg := metrics.NewRegistry()
	g := settableGauge(reg, "queue_depth")
	w := New(Config{
		Registry: reg,
		DB:       history(reg),
		logger:   quietLogger(),
		Rules: []Rule{{
			Name: "queue-depth", Expr: Metric("queue_depth"),
			Op: Above, Threshold: 100, For: 2,
		}},
	})
	now := time.Unix(5000, 0)
	tick := func(v float64) []Breach {
		g.Set(v)
		now = now.Add(time.Second)
		return w.Evaluate(now)
	}

	// Breach #1 after a full For streak.
	tick(500)
	fired := tick(500)
	if len(fired) != 1 || w.Breaches() != 1 {
		t.Fatalf("first breach: fired=%v breaches=%d", fired, w.Breaches())
	}
	// Recovery.
	if fired := tick(10); len(fired) != 0 || !w.Healthy() {
		t.Fatal("recovery did not clear the breach")
	}
	// Re-breach needs the full streak again — one excursion is not enough.
	if fired := tick(500); len(fired) != 0 {
		t.Fatal("re-breach fired after a single excursion")
	}
	fired = tick(500)
	if len(fired) != 1 || fired[0].Consecutive != 2 {
		t.Fatalf("re-breach: fired=%+v, want streak 2", fired)
	}
	if w.Breaches() != 2 {
		t.Fatalf("Breaches() = %d after two incidents", w.Breaches())
	}
	if w.Healthy() {
		t.Fatal("healthy while re-breached")
	}
}

// TestBundlePruningOrder verifies maxBundles keeps the NEWEST bundles:
// the survivors must be exactly the last written, in age order.
func TestBundlePruningOrder(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	g := settableGauge(reg, "x")
	w := New(Config{
		Registry: reg, DB: history(reg), BundleDir: dir, maxBundles: 3, logger: quietLogger(),
		Rules: []Rule{{Name: "x-high", Expr: Metric("x"), Op: Above, Threshold: 1}},
	})
	now := time.Unix(6000, 0)
	var written []string
	for i := 0; i < 6; i++ {
		g.Set(0)
		w.Evaluate(now.Add(time.Duration(2*i) * time.Second))
		g.Set(9)
		fired := w.Evaluate(now.Add(time.Duration(2*i+1) * time.Second))
		if len(fired) != 1 || fired[0].BundlePath == "" {
			t.Fatalf("round %d: fired=%v", i, fired)
		}
		written = append(written, fired[0].BundlePath)
	}
	paths, err := listBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("%d bundles survive, want 3", len(paths))
	}
	for i, want := range written[3:] {
		if paths[i] != want {
			t.Fatalf("survivor[%d] = %s, want %s (newest kept, oldest-first order)", i, paths[i], want)
		}
	}
}

// TestBundleEmbedsHistory: with BundleHistory wired, a breach bundle
// carries the named families' last hour of history and the live
// snapshot the rule fired on.
func TestBundleEmbedsHistory(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	ctr := reg.Counter("events_total")
	g := settableGauge(reg, "queue_depth")
	db := tsdb.New(tsdb.Options{Registry: reg})

	start := time.Unix(400_000, 0)
	var now time.Time
	for i := 0; i <= 120; i++ {
		now = start.Add(time.Duration(i) * time.Second)
		ctr.Add(10)
		db.ScrapeOnce(now)
	}
	w := New(Config{
		Registry:      reg,
		DB:            db,
		BundleHistory: []string{"events_total"},
		BundleDir:     dir,
		logger:        quietLogger(),
		Rules: []Rule{{
			Name: "queue-depth", Expr: Metric("queue_depth"),
			Op: Above, Threshold: 100,
		}},
	})
	g.Set(500)
	fired := w.Evaluate(now)
	if len(fired) != 1 || fired[0].BundlePath == "" {
		t.Fatalf("fired = %+v", fired)
	}
	b, err := ReadBundle(fired[0].BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.History) != 1 || b.History[0].Family != "events_total" {
		t.Fatalf("bundle history = %+v", b.History)
	}
	if n := len(b.History[0].Points); n < 100 {
		t.Fatalf("bundle history has %d points, want the full recorded window", n)
	}
	if want := fired[0].Time.Add(-time.Hour); !b.HistoryFrom.Equal(want) {
		t.Fatalf("HistoryFrom = %v, want %v", b.HistoryFrom, want)
	}
	if b.Snapshot["queue_depth"] != 500.0 {
		t.Fatalf("bundle snapshot queue_depth = %v, want the live 500", b.Snapshot["queue_depth"])
	}
}

// TestConcurrentEvaluateScrapeQuery races rule evaluation against
// scraping and querying the shared DB; run with -race (scripts/ci.sh
// covers internal/watch with the tsdb package).
func TestConcurrentEvaluateScrapeQuery(t *testing.T) {
	reg := metrics.NewRegistry()
	total := reg.Counter("requests_total")
	errs := reg.Counter("request_errors_total")
	db := tsdb.New(tsdb.Options{Registry: reg})
	w := New(Config{
		Registry: reg,
		DB:       db,
		logger:   quietLogger(),
		Rules: []Rule{
			{
				Name: "burn", Expr: Burn(reqErrors, requests, 0.99, 5*time.Minute, time.Hour),
				Op: Above, Threshold: 2,
			},
			{
				Name: "req-rate", Expr: Rate(requests, time.Minute),
				Op: Above, Threshold: 1e12,
			},
		},
	})
	start := time.Unix(500_000, 0)
	const iters = 300
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			total.Add(1000)
			errs.Add(25)
			db.ScrapeOnce(start.Add(time.Duration(i) * time.Second))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			w.Evaluate(start.Add(time.Duration(i) * time.Second))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.Query(tsdb.Query{Series: "requests_total", From: start, To: start.Add(time.Hour), Rate: true})
			w.Status()
			w.Healthy()
		}
	}()
	wg.Wait()
}
