package tsdb

import (
	"testing"
	"time"

	"spooftrack/internal/metrics"
)

func TestQueryRateAndAggregation(t *testing.T) {
	reg := metrics.NewRegistry()
	vec := reg.CounterVec("packets_total", "link")
	db := New(Options{Registry: reg})
	for i := 0; i <= 10; i++ {
		vec.With("a").Add(100) // 100/s
		vec.With("b").Add(300) // 300/s
		db.ScrapeOnce(t0.Add(time.Duration(i) * time.Second))
	}
	end := t0.Add(10 * time.Second)

	rates := db.Query(Query{Series: "packets_total", From: t0, To: end, Rate: true})
	if len(rates) != 2 {
		t.Fatalf("rate query matched %d series, want 2", len(rates))
	}
	for _, sd := range rates {
		want := 100.0
		if sd.Child == "link=b" {
			want = 300
		}
		for _, p := range sd.Points {
			if p.V != want {
				t.Fatalf("%s rate point %v, want %v", sd.Child, p.V, want)
			}
		}
	}

	sum := db.Query(Query{Series: "packets_total", From: t0, To: end, Rate: true, Agg: "sum"})
	if len(sum) != 1 || len(sum[0].Points) != 10 {
		t.Fatalf("sum-of-rates = %+v", sum)
	}
	for _, p := range sum[0].Points {
		if p.V != 400 {
			t.Fatalf("sum rate point %v, want 400", p.V)
		}
	}

	max := db.Query(Query{Series: "packets_total", From: t0, To: end, Agg: "max"})
	if last := max[0].Points[len(max[0].Points)-1].V; last != 3300 {
		t.Fatalf("max at end = %v, want 3300", last)
	}

	if got := db.Query(Query{Series: "no_such_series", From: t0, To: end}); len(got) != 0 {
		t.Fatalf("unknown series returned %+v", got)
	}
}

func TestQueryChildFilter(t *testing.T) {
	reg := metrics.NewRegistry()
	vec := reg.CounterVec("packets_total", "link")
	db := New(Options{Registry: reg})
	vec.With("a").Add(1)
	vec.With("b").Add(2)
	db.ScrapeOnce(t0)
	got := db.Query(Query{Series: "packets_total", Child: "link=b", From: t0, To: t0.Add(time.Second)})
	if len(got) != 1 || got[0].Child != "link=b" || got[0].Points[0].V != 2 {
		t.Fatalf("child filter = %+v", got)
	}
}

func TestIncreaseAndCounterReset(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("events_total")
	db := New(Options{Registry: reg})
	ctr.Add(100)
	db.ScrapeOnce(t0)
	ctr.Add(50)
	db.ScrapeOnce(t0.Add(10 * time.Second))
	ctr.Add(50)
	db.ScrapeOnce(t0.Add(20 * time.Second))

	delta, dt, ok := db.Increase("events_total", "", t0, t0.Add(20*time.Second))
	if !ok || delta != 100 || dt != 20 {
		t.Fatalf("Increase = (%v, %v, %v), want (100, 20, true)", delta, dt, ok)
	}

	// A window reaching before history clamps to real data: the answer
	// is the honest rate over what exists, not a diluted one.
	delta, dt, ok = db.Increase("events_total", "", t0.Add(-time.Hour), t0.Add(20*time.Second))
	if !ok || delta/dt != 5 {
		t.Fatalf("clamped Increase = (%v, %v, %v), want rate 5", delta, dt, ok)
	}

	// Counter reset: the drop restarts accumulation from zero.
	reg2 := metrics.NewRegistry()
	g := reg2.Gauge("restarting_total") // gauge lets the test force a drop
	db2 := New(Options{Registry: reg2})
	g.Set(1000)
	db2.ScrapeOnce(t0)
	g.Set(1100)
	db2.ScrapeOnce(t0.Add(time.Second))
	g.Set(30) // process restart
	db2.ScrapeOnce(t0.Add(2 * time.Second))
	delta, _, ok = db2.Increase("restarting_total", "", t0, t0.Add(2*time.Second))
	if !ok || delta != 130 {
		t.Fatalf("reset-aware Increase = %v, want 130", delta)
	}

	if _, _, ok := db.Increase("missing", "", t0, t0.Add(time.Second)); ok {
		t.Fatal("Increase on a missing series reported ok")
	}
}

func TestQuantileOverTime(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lag_seconds", 0.01, 0.1, 1, 10)
	db := New(Options{Registry: reg})

	// Phase 1: all observations fast.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	db.ScrapeOnce(t0)
	// Phase 2: all slow.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	db.ScrapeOnce(t0.Add(time.Minute))

	// Whole window mixes both phases; live P99 agrees.
	whole, ok := db.QuantileOverTime("lag_seconds", "", 0.99, t0.Add(-time.Minute), t0.Add(time.Minute))
	if !ok {
		t.Fatal("whole-window quantile not ok")
	}
	if live, snap := h.Quantile(0.99), h.Snapshot().P99; whole != live || whole != snap {
		t.Fatalf("p99: scraped series %v, live histogram %v, its snapshot %v — one rule must answer all three", whole, live, snap)
	}
	// A window covering only phase 2 must see only slow samples.
	late, ok := db.QuantileOverTime("lag_seconds", "", 0.5, t0.Add(30*time.Second), t0.Add(time.Minute))
	if !ok {
		t.Fatal("late-window quantile not ok")
	}
	if late <= 1 {
		t.Fatalf("late-window median %v should reflect only slow samples (>1s)", late)
	}
	if whole <= 1 {
		t.Fatalf("whole-window p99 %v should land in the slow bucket", whole)
	}
	if _, ok := db.QuantileOverTime("lag_seconds", "", 0.5, t0.Add(2*time.Minute), t0.Add(3*time.Minute)); ok {
		t.Fatal("quantile over an empty window reported ok")
	}
}

// TestQueryRangeLatency is the ISSUE acceptance check: a rate() query
// over a 2h window answers in under 5ms.
func TestQueryRangeLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("events_total")
	db := New(Options{Registry: reg, Tiers: []Tier{{Resolution: 0, Retention: 3 * time.Hour}}})
	const n = 7200 // 2h at 1s cadence
	for i := 0; i <= n; i++ {
		ctr.Add(1000)
		db.ScrapeOnce(t0.Add(time.Duration(i) * time.Second))
	}
	end := t0.Add(n * time.Second)
	q := Query{Series: "events_total", From: t0, To: end, Rate: true}
	if got := db.Query(q); len(got) != 1 || len(got[0].Points) != n {
		t.Fatalf("warmup query returned %d series", len(got))
	}
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		start := time.Now()
		db.Query(q)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best > 5*time.Millisecond {
		t.Fatalf("2h rate() query took %v (best of 5), budget 5ms", best)
	}
	t.Logf("2h rate() query: %v (best of 5, %d points)", best, n)
}
