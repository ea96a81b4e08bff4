package watch

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/metrics"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// history is an empty metric history over reg, scraped by hand.
func history(reg *metrics.Registry) *tsdb.DB {
	return tsdb.New(tsdb.Options{Registry: reg})
}

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

func TestRuleForHysteresisAndRecovery(t *testing.T) {
	reg := metrics.NewRegistry()
	g := settableGauge(reg, "queue_depth")
	w := New(Config{
		Registry: reg,
		DB:       history(reg),
		logger:   quietLogger(),
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

// TestRateRule: a Rate rule's value is its counter's growth over its
// window of history, per second.
func TestRateRule(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.CounterVec("border_packets_total", "outcome")
	db := history(reg)
	w := New(Config{
		Registry: reg,
		DB:       db,
		logger:   quietLogger(),
		Rules: []Rule{{
			Name: "drop-rate", Expr: Rate(Counter{"border_packets_total", "outcome=dropped"}, time.Second),
			Op: Above, Threshold: 50, // packets/sec
		}},
	})
	now := time.Unix(2000, 0)
	tick := func(at time.Time) []Breach {
		db.ScrapeOnce(at)
		return w.Evaluate(at)
	}
	c.With("dropped").Add(0)
	// The first eval has no history before it: no data, no fire.
	if fired := tick(now); len(fired) != 0 {
		t.Fatalf("first eval fired %v", fired)
	}
	if st := w.Status(); st[0].HasData {
		t.Fatalf("rate with no history behind it reports data: %+v", st[0])
	}
	// +30 drops over 1s = 30/s: under threshold.
	c.With("dropped").Add(30)
	if fired := tick(now.Add(time.Second)); len(fired) != 0 {
		t.Fatalf("30/s fired %v", fired)
	}
	// +200 drops over 1s = 200/s: breach (For defaults to 1).
	c.With("dropped").Add(200)
	fired := tick(now.Add(2 * time.Second))
	if len(fired) != 1 || fired[0].Value != 200 {
		t.Fatalf("200/s: fired = %+v", fired)
	}
}

// TestRatioAndMissingData: Fraction is Δerrors/Δtotal over its window,
// a Counter with no child sums every child, and missing data — a vector
// with no children, children whose total does not grow, a family never
// registered — neither fires nor marks the watchdog unhealthy.
func TestRatioAndMissingData(t *testing.T) {
	reg := metrics.NewRegistry()
	v := reg.CounterVec("requests_total", "result")
	db := history(reg)
	all := Counter{Family: "requests_total"}
	w := New(Config{
		Registry: reg,
		DB:       db,
		logger:   quietLogger(),
		Rules: []Rule{
			{Name: "miss-fraction", Expr: Fraction(Counter{"requests_total", "result=miss"}, all, time.Minute), Op: Above, Threshold: 0.5},
			{Name: "unregistered", Expr: Fraction(Counter{Family: "no_such_total"}, all, time.Minute), Op: Above, Threshold: -1},
		},
	})
	tick := func(sec int64) []Breach {
		db.ScrapeOnce(time.Unix(sec, 0))
		return w.Evaluate(time.Unix(sec, 0))
	}
	noData := func(when string) {
		t.Helper()
		for _, st := range w.Status() {
			if st.HasData || st.Breaching {
				t.Fatalf("%s: %+v, want no data", when, st)
			}
		}
		if !w.Healthy() {
			t.Fatalf("%s: unhealthy", when)
		}
	}
	tick(1)
	noData("no children yet")
	v.With("hit").Add(1)
	v.With("miss").Add(4)
	tick(2)
	noData("children first scraped")
	tick(3)
	noData("no growth in total")
	v.With("hit").Add(1)
	v.With("miss").Add(4)
	fired := tick(4)
	// 4 misses of 5 requests: the child-less total summed hit and miss.
	if len(fired) != 1 || fired[0].Rule != "miss-fraction" || fired[0].Value != 0.8 {
		t.Fatalf("4 misses in 5 requests: fired = %+v, want miss-fraction at 0.8", fired)
	}
	if st := w.Status()[1]; st.HasData || st.Breaching {
		t.Fatalf("fraction over a family never registered = %+v, want no data", st)
	}
}

// TestVecSumExpr: a Counter with no Child sums every child of a vector
// family; an empty vector or an absent family is no data, not zero.
func TestVecSumExpr(t *testing.T) {
	reg := metrics.NewRegistry()
	lost := reg.CounterVec("probe_lost_total", "link")
	sent := reg.CounterVec("probe_sent_total", "link")
	db := history(reg)
	at := func(sec int64) View {
		db.ScrapeOnce(time.Unix(sec, 0))
		return View{Now: time.Unix(sec, 0), Live: reg.Snapshot(), DB: db}
	}
	allLost := Counter{Family: "probe_lost_total"}
	allSent := Counter{Family: "probe_sent_total"}
	// An idle scan loop has no children yet: a rule on it must not
	// compare against 0.
	v := at(1)
	if _, ok := Rate(allLost, time.Minute)(v); ok {
		t.Fatal("empty vector produced data")
	}
	if _, ok := Rate(Counter{Family: "no_such_metric"}, time.Minute)(v); ok {
		t.Fatal("absent metric produced data")
	}
	lost.With("ams01").Add(1)
	lost.With("sea02").Add(1)
	sent.With("ams01").Add(1)
	sent.With("sea02").Add(1)
	at(2)
	lost.With("ams01").Add(3)
	lost.With("sea02").Add(4)
	sent.With("ams01").Add(10)
	sent.With("sea02").Add(4)
	v = at(3)
	if r, ok := Rate(allLost, time.Minute)(v); !ok || r != 7 {
		t.Fatalf("summed loss rate = %v, %v, want 7/s, true", r, ok)
	}
	// Composes with Fraction for cross-link loss-rate SLOs.
	if f, ok := Fraction(allLost, allSent, time.Minute)(v); !ok || f != 0.5 {
		t.Fatalf("loss fraction = %v, %v, want 0.5, true", f, ok)
	}
}

// TestBreachWritesCompleteBundle forces an SLO breach and verifies the
// diagnostic bundle lands atomically with every section present: the
// breached rule, the live snapshot it fired on, the trace-journal
// export, and both profiles.
func TestBreachWritesCompleteBundle(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	ctr := reg.Counter("stream_events_total")
	tr := trace.New(trace.Options{Enabled: true})
	sp := tr.Start("pipeline.root")
	sp.End()

	db := history(reg)
	w := New(Config{
		Registry:  reg,
		DB:        db,
		Tracer:    tr,
		BundleDir: dir,
		logger:    quietLogger(),
		Rules: []Rule{{
			Name: "events-rate", Expr: Rate(Counter{Family: "stream_events_total"}, time.Minute),
			Op: Above, Threshold: 2, For: 2,
		}},
	})

	now := time.Unix(3000, 0)
	tick := func(at time.Time) []Breach {
		db.ScrapeOnce(at)
		return w.Evaluate(at)
	}
	ctr.Inc() // healthy tick first, so history leads into the breach
	tick(now)
	ctr.Add(100)
	tick(now.Add(time.Second))
	fired := tick(now.Add(2 * time.Second))
	if len(fired) != 1 {
		t.Fatalf("fired = %+v, want 1 breach", fired)
	}
	path := fired[0].BundlePath
	if path == "" || w.LastBundlePath() != path {
		t.Fatalf("bundle path %q, last %q", path, w.LastBundlePath())
	}

	b, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != bundleVersion || b.Breach.Rule != "events-rate" || b.Breach.Op != ">" {
		t.Fatalf("bundle header = %+v", b)
	}
	if b.Breach.Value <= 2 {
		t.Fatalf("bundle breach value %v not over threshold", b.Breach.Value)
	}
	if b.RuleFor != 2 {
		t.Fatalf("bundle rule_for = %d", b.RuleFor)
	}
	if _, ok := b.Snapshot["stream_events_total"]; !ok {
		t.Fatal("bundle snapshot missing watched metric")
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
	g := settableGauge(reg, "x")
	w := New(Config{
		Registry: reg, DB: history(reg), BundleDir: dir, maxBundles: 2, logger: quietLogger(),
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

func TestNewRequiresHistory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without a DB did not panic")
		}
	}()
	New(Config{Registry: metrics.NewRegistry()})
}

func TestStartStopTicker(t *testing.T) {
	reg := metrics.NewRegistry()
	settableGauge(reg, "x").Set(5)
	w := New(Config{
		Registry: reg, DB: history(reg), interval: 5 * time.Millisecond, logger: quietLogger(),
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

// TestStopWaitsForEvaluation: Stop returns only once an evaluation in
// flight has finished, so a bundle being written (profiles, a trace
// export) is never cut off by the caller tearing down after Stop.
func TestStopWaitsForEvaluation(t *testing.T) {
	reg := metrics.NewRegistry()
	entered := make(chan struct{})
	var calls, finished atomic.Int32
	w := New(Config{
		Registry: reg, DB: history(reg), interval: time.Millisecond, logger: quietLogger(),
		Rules: []Rule{{Name: "slow", Expr: func(View) (float64, bool) {
			if calls.Add(1) == 1 {
				close(entered)
				time.Sleep(100 * time.Millisecond)
				finished.Store(1)
			}
			return 0, true
		}}},
	})
	w.Start()
	<-entered
	w.Stop()
	if finished.Load() == 0 {
		t.Fatal("Stop returned while an evaluation was still running")
	}
}
