package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	// Get-or-create must return the same instance.
	if r.Counter("events") != c {
		t.Fatal("Counter lookup returned a different instance")
	}
}

// testGauge is a gauge the test sets by hand: shipped code registers
// scalar gauges as GaugeFunc over the state they read, so a fixture does
// the same over an atomic float.
type testGauge struct{ bits atomic.Uint64 }

func (g *testGauge) Set(v float64)  { g.bits.Store(math.Float64bits(v)) }
func (g *testGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// settableGauge registers a testGauge under name.
func settableGauge(r *Registry, name string) *testGauge {
	g := &testGauge{}
	r.GaugeFunc(name, g.Value)
	return g
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // 0.5 .. 7.5
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 0.0
	for i := 0; i < 100; i++ {
		wantSum += float64(i%8) + 0.5
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	if m := h.Mean(); math.Abs(m-wantSum/100) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	// Median of samples spread over (0.5..7.5) should land mid-range.
	if q := h.Quantile(0.5); q < 1 || q > 6 {
		t.Fatalf("p50 = %v, want within (1, 6)", q)
	}
	if q := h.Quantile(0.99); q < 4 || q > 8 {
		t.Fatalf("p99 = %v, want within (4, 8]", q)
	}
	// Overflow clamps to the last bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if q := h2.Quantile(0.9); q != 2 {
		t.Fatalf("overflow quantile = %v, want 2", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	const goroutines, per = 4, 5000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-float64(goroutines*per)) > 1e-6 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestWriteJSONAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingested").Add(42)
	settableGauge(r, "queue_depth").Set(7)
	r.HistogramVec("flush_size", []string{"shard"}, 1, 10, 100).With("0").Observe(5)

	defer func(orig func() time.Time) { timeNow = orig }(timeNow)
	timeNow = func() time.Time { return time.Unix(1_700_000_000, 0) }

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	// The snapshot leads with its capture timestamp, self-describing for
	// anyone archiving exports.
	if decoded["ts"] != float64(1_700_000_000) {
		t.Fatalf("ts = %v, want 1700000000", decoded["ts"])
	}
	if !strings.HasPrefix(buf.String(), "{\n\"ts\": 1700000000,\n") {
		t.Fatalf("ts is not the first key:\n%s", buf.String())
	}
	if decoded["ingested"] != float64(42) {
		t.Fatalf("ingested = %v", decoded["ingested"])
	}
	if decoded["queue_depth"] != float64(7) {
		t.Fatalf("queue_depth = %v", decoded["queue_depth"])
	}
	hist, ok := decoded["flush_size"].(map[string]any)["shard=0"].(map[string]any)
	if !ok || hist["count"] != float64(1) {
		t.Fatalf("flush_size = %v", decoded["flush_size"])
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("handler: code %d, type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("handler body not JSON: %v", err)
	}
}
