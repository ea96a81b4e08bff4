package watch

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestRuleForHysteresisAndRecovery(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.Gauge("queue_depth")
	w := New(Config{
		Registry: reg,
		Logger:   quietLogger(),
		Rules: []Rule{{
			Name: "queue-depth", Expr: Metric("queue_depth"),
			Op: Above, Threshold: 100, For: 3,
		}},
	})
	now := time.Unix(1000, 0)

	g.Set(500)
	for i := 1; i <= 2; i++ {
		if fired := w.Evaluate(now.Add(time.Duration(i) * time.Second)); len(fired) != 0 {
			t.Fatalf("eval %d fired %v before For=3 streak", i, fired)
		}
		if !w.Healthy() {
			t.Fatalf("unhealthy before streak completes")
		}
	}
	fired := w.Evaluate(now.Add(3 * time.Second))
	if len(fired) != 1 || fired[0].Rule != "queue-depth" || fired[0].Consecutive != 3 {
		t.Fatalf("third eval fired = %+v, want one queue-depth breach at streak 3", fired)
	}
	if w.Healthy() {
		t.Fatal("healthy while in breach")
	}
	if got := w.BreachingRules(); len(got) != 1 || got[0] != "queue-depth" {
		t.Fatalf("BreachingRules = %v", got)
	}
	// Staying in breach does not re-fire.
	if fired := w.Evaluate(now.Add(4 * time.Second)); len(fired) != 0 {
		t.Fatalf("re-fired while already breaching: %v", fired)
	}
	// Recovery clears the breach and resets the streak.
	g.Set(10)
	if fired := w.Evaluate(now.Add(5 * time.Second)); len(fired) != 0 {
		t.Fatalf("fired on recovery: %v", fired)
	}
	if !w.Healthy() {
		t.Fatal("unhealthy after recovery")
	}
	// A single excursion after recovery must not fire (streak reset).
	g.Set(500)
	if fired := w.Evaluate(now.Add(6 * time.Second)); len(fired) != 0 {
		t.Fatal("fired after one post-recovery excursion")
	}
}

func TestRateRule(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.CounterVec("border_packets_total", "outcome")
	w := New(Config{
		Registry: reg,
		Logger:   quietLogger(),
		Rules: []Rule{{
			Name: "drop-rate", Expr: Series("border_packets_total", "outcome=dropped"),
			Rate: true, Op: Above, Threshold: 50, // packets/sec
		}},
	})
	now := time.Unix(2000, 0)
	c.With("dropped").Add(0)
	// First eval has no previous snapshot: no data, no fire.
	if fired := w.Evaluate(now); len(fired) != 0 {
		t.Fatalf("first eval fired %v", fired)
	}
	// +30 drops over 1s = 30/s: under threshold.
	c.With("dropped").Add(30)
	if fired := w.Evaluate(now.Add(time.Second)); len(fired) != 0 {
		t.Fatalf("30/s fired %v", fired)
	}
	// +200 drops over 1s = 200/s: breach (For defaults to 1).
	c.With("dropped").Add(200)
	fired := w.Evaluate(now.Add(2 * time.Second))
	if len(fired) != 1 || fired[0].Value != 200 {
		t.Fatalf("200/s: fired = %+v", fired)
	}
}

func TestRatioAndMissingData(t *testing.T) {
	reg := metrics.NewRegistry()
	v := reg.CounterVec("cache_requests_total", "result")
	hitRate := Ratio(
		Series("cache_requests_total", "result=hit"),
		Sum(Series("cache_requests_total", "result=hit"), Series("cache_requests_total", "result=miss")),
	)
	w := New(Config{
		Registry: reg,
		Logger:   quietLogger(),
		Rules:    []Rule{{Name: "hit-rate-floor", Expr: hitRate, Op: Below, Threshold: 0.5}},
	})
	// No children yet: missing data must not fire or mark unhealthy.
	if fired := w.Evaluate(time.Unix(1, 0)); len(fired) != 0 || !w.Healthy() {
		t.Fatalf("missing data fired or unhealthy")
	}
	v.With("hit").Add(1)
	v.With("miss").Add(9)
	fired := w.Evaluate(time.Unix(2, 0))
	if len(fired) != 1 || fired[0].Value != 0.1 {
		t.Fatalf("hit rate 0.1 under floor 0.5: fired = %+v", fired)
	}
}

func TestVecSumExpr(t *testing.T) {
	reg := metrics.NewRegistry()
	vec := reg.CounterVec("probe_lost_total", "link")
	// An empty vector is "no data", not zero — a rule on an idle scan
	// loop must not compare against 0.
	if _, ok := VecSum("probe_lost_total")(reg.Snapshot()); ok {
		t.Fatal("empty vector produced data")
	}
	if _, ok := VecSum("no_such_metric")(reg.Snapshot()); ok {
		t.Fatal("absent metric produced data")
	}
	vec.With("ams01").Add(3)
	vec.With("sea02").Add(4)
	v, ok := VecSum("probe_lost_total")(reg.Snapshot())
	if !ok || v != 7 {
		t.Fatalf("VecSum = %v, %v, want 7, true", v, ok)
	}
	// Composes with Ratio for cross-link loss-rate SLOs.
	sent := reg.CounterVec("probe_sent_total", "link")
	sent.With("ams01").Add(10)
	sent.With("sea02").Add(4)
	r, ok := Ratio(VecSum("probe_lost_total"), VecSum("probe_sent_total"))(reg.Snapshot())
	if !ok || r != 0.5 {
		t.Fatalf("loss ratio = %v, %v, want 0.5, true", r, ok)
	}
}

func TestQuantileExpr(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lag_seconds", 0.1, 1, 10)
	for i := 0; i < 99; i++ {
		h.Observe(0.05)
	}
	h.Observe(5) // p99 lands in (1,10]
	snap := reg.Snapshot()
	direct := h.Quantile(0.99)
	got, ok := Quantile("lag_seconds", 0.99)(snap)
	if !ok {
		t.Fatal("quantile expr: no data")
	}
	if got != direct {
		t.Fatalf("snapshot quantile %v != live quantile %v", got, direct)
	}
	// The same expression over the snapshot the tsdb reassembles from
	// its scraped series answers alike: one interpolation rule.
	db := tsdb.New(tsdb.Options{Registry: reg})
	db.ScrapeOnce(time.Unix(100, 0))
	if got, ok := Quantile("lag_seconds", 0.99)(db.SnapshotAt(time.Unix(100, 0))); !ok || got != direct {
		t.Fatalf("scraped-series quantile %v (ok=%v) != live quantile %v", got, ok, direct)
	}
	// All mass in overflow clamps to the last bound, exactly as the live
	// histogram answers.
	h2 := reg.Histogram("over_seconds", 0.1, 1)
	h2.Observe(50)
	got, ok = Quantile("over_seconds", 0.5)(reg.Snapshot())
	if !ok || got != h2.Quantile(0.5) || got != 1 {
		t.Fatalf("overflow quantile = %v ok=%v, want 1", got, ok)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.Gauge("x")
	w := New(Config{Registry: reg, Logger: quietLogger(), History: 4})
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		w.Evaluate(time.Unix(int64(i), 0))
	}
	recs := w.Recorder()
	if len(recs) != 4 {
		t.Fatalf("recorder holds %d snapshots, want 4", len(recs))
	}
	for i, r := range recs {
		wantT := time.Unix(int64(6+i), 0)
		if !r.Time.Equal(wantT) {
			t.Fatalf("recorder[%d].Time = %v, want %v (oldest-first)", i, r.Time, wantT)
		}
		if r.Metrics["x"] != float64(6+i) {
			t.Fatalf("recorder[%d] x = %v", i, r.Metrics["x"])
		}
	}
}

// TestBreachWritesCompleteBundle forces an SLO breach and verifies the
// diagnostic bundle lands atomically with every section present: the
// breached rule, the flight-recorder snapshots, the trace-journal
// export, and both profiles.
func TestBreachWritesCompleteBundle(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	h := reg.Histogram("stream_flush_lag_seconds", 0.1, 1, 10)
	tr := trace.New(trace.Options{Enabled: true, JournalCap: 128})
	sp := tr.Start("pipeline.root")
	sp.End()

	var hooked []Breach
	w := New(Config{
		Registry:  reg,
		Tracer:    tr,
		BundleDir: dir,
		History:   8,
		Logger:    quietLogger(),
		OnBreach:  func(b Breach) { hooked = append(hooked, b) },
		Rules: []Rule{{
			Name: "flush-lag-p99", Expr: Quantile("stream_flush_lag_seconds", 0.99),
			Op: Above, Threshold: 2, For: 2,
		}},
	})

	now := time.Unix(3000, 0)
	h.Observe(0.05) // healthy tick first, so the recorder has history
	w.Evaluate(now)
	for i := 0; i < 100; i++ {
		h.Observe(8)
	}
	w.Evaluate(now.Add(time.Second))
	fired := w.Evaluate(now.Add(2 * time.Second))
	if len(fired) != 1 {
		t.Fatalf("fired = %+v, want 1 breach", fired)
	}
	path := fired[0].BundlePath
	if path == "" || w.LastBundlePath() != path {
		t.Fatalf("bundle path %q, last %q", path, w.LastBundlePath())
	}
	if len(hooked) != 1 || hooked[0].Rule != "flush-lag-p99" {
		t.Fatalf("OnBreach hook = %+v", hooked)
	}

	b, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != bundleVersion || b.Breach.Rule != "flush-lag-p99" || b.Breach.Op != ">" {
		t.Fatalf("bundle header = %+v", b)
	}
	if b.Breach.Value <= 2 {
		t.Fatalf("bundle breach value %v not over threshold", b.Breach.Value)
	}
	if b.RuleFor != 2 {
		t.Fatalf("bundle rule_for = %d", b.RuleFor)
	}
	if len(b.Snapshots) != 3 {
		t.Fatalf("bundle has %d snapshots, want 3", len(b.Snapshots))
	}
	if _, ok := b.Snapshots[0].Metrics["stream_flush_lag_seconds"]; !ok {
		t.Fatal("bundle snapshots missing watched metric")
	}
	var traceDoc struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b.Trace, &traceDoc); err != nil {
		t.Fatalf("bundle trace not decodable: %v", err)
	}
	if len(traceDoc.Spans) != 1 || traceDoc.Spans[0].Name != "pipeline.root" {
		t.Fatalf("bundle trace spans = %+v", traceDoc.Spans)
	}
	if !strings.Contains(b.Goroutine, "goroutine profile:") {
		t.Fatal("bundle missing goroutine profile")
	}
	if !strings.Contains(b.Heap, "heap profile:") {
		t.Fatal("bundle missing heap profile")
	}
	if b.NumGoroutine <= 0 || b.GoVersion == "" {
		t.Fatalf("bundle runtime info = %d %q", b.NumGoroutine, b.GoVersion)
	}

	// No .tmp residue (atomic publish).
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	// Latest resolves to this bundle.
	latest, err := Latest(dir)
	if err != nil || latest != path {
		t.Fatalf("Latest = %q err=%v, want %q", latest, err, path)
	}
}

func TestBundlePruning(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	g := reg.Gauge("x")
	w := New(Config{
		Registry: reg, BundleDir: dir, MaxBundles: 2, Logger: quietLogger(),
		Rules: []Rule{{Name: "x-high", Expr: Metric("x"), Op: Above, Threshold: 1}},
	})
	now := time.Unix(4000, 0)
	for i := 0; i < 5; i++ {
		// Alternate healthy/breaching so each breach re-fires and writes a
		// fresh bundle.
		g.Set(0)
		w.Evaluate(now.Add(time.Duration(2*i) * time.Second))
		g.Set(9)
		if fired := w.Evaluate(now.Add(time.Duration(2*i+1) * time.Second)); len(fired) != 1 {
			t.Fatalf("round %d: fired %d", i, len(fired))
		}
	}
	paths, err := listBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("%d bundles on disk, want 2 (pruned)", len(paths))
	}
	latest, _ := Latest(dir)
	if latest != w.LastBundlePath() {
		t.Fatalf("Latest %q != LastBundlePath %q", latest, w.LastBundlePath())
	}
}

func TestLatestOnMissingDir(t *testing.T) {
	p, err := Latest(filepath.Join(t.TempDir(), "nope"))
	if err != nil || p != "" {
		t.Fatalf("Latest on missing dir = %q, %v", p, err)
	}
}

func TestStartStopTicker(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Gauge("x").Set(5)
	w := New(Config{
		Registry: reg, Interval: 5 * time.Millisecond, Logger: quietLogger(),
		Rules: []Rule{{Name: "x-high", Expr: Metric("x"), Op: Above, Threshold: 1}},
	})
	w.Start()
	deadline := time.After(2 * time.Second)
	for w.Breaches() == 0 {
		select {
		case <-deadline:
			t.Fatal("ticker never fired a breach")
		case <-time.After(5 * time.Millisecond):
		}
	}
	w.Stop()
	w.Stop() // idempotent
}
