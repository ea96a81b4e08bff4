package stream

import (
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/topo"
	"spooftrack/internal/tsdb"
)

// TestStatusAllocationsDoNotScaleWithCandidates: Status runs under the
// pipeline lock, so it must size clusters from one table however many
// candidates carry volume — not rebuild the table per candidate.
func TestStatusAllocationsDoNotScaleWithCandidates(t *testing.T) {
	const nSources = 1000
	row := make([]bgp.LinkID, nSources)
	asns := make([]topo.ASN, nSources)
	for k := range row {
		row[k] = bgp.LinkID(k % 2)
		asns[k] = topo.ASN(65000 + k)
	}
	attr := Attribution{Catchments: [][]bgp.LinkID{row}, SourceASNs: asns, NumLinks: 2}
	// The round never folds, so every source stays a candidate and both
	// links keep their round volume for Status to attribute.
	p, err := New(attr, Config{
		Workers:         1,
		FlushInterval:   time.Millisecond,
		EvalInterval:    time.Hour,
		MinRoundPackets: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Ingest(testEvent(0))
	p.Ingest(testEvent(1))
	for deadline := time.Now().Add(5 * time.Second); p.TotalEvents() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("events never flushed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if got := len(p.Status(nSources).TopSources); got != nSources {
		t.Fatalf("Status attributes volume to %d sources, want all %d", got, nSources)
	}
	if allocs := testing.AllocsPerRun(10, func() { p.Status(10) }); allocs > 100 {
		t.Fatalf("Status over %d volume-bearing candidates makes %v allocations; a size table per candidate?", nSources, allocs)
	}
}

// TestFlushLagP99NearTheTick records a healthy daemon's flush lags at
// the default 100 ms tick: 11 under 0.05 s, 81 under 0.1 s and 8 just
// past it at 0.1008 s. The p99 must read the lag past the tick, not
// interpolate toward the next edge: both the live histogram and the
// metric history's windowed quantile, which the flush-lag rule and
// /slo read, answer at most 0.15 s.
func TestFlushLagP99NearTheTick(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("stream_flush_lag_seconds", flushLagBounds...)
	db := tsdb.New(tsdb.Options{Registry: reg})
	t0 := time.Unix(1_700_000_000, 0)
	db.ScrapeOnce(t0)
	for _, b := range []struct {
		lag float64
		n   int
	}{{0.03, 11}, {0.08, 81}, {0.1008, 8}} {
		for range b.n {
			h.Observe(b.lag)
		}
	}
	db.ScrapeOnce(t0.Add(time.Second))
	if p99 := h.Quantile(0.99); p99 > 0.15 {
		t.Errorf("histogram p99 %.3f s, want ≤ 0.15", p99)
	}
	p99, ok := db.QuantileOverTime("stream_flush_lag_seconds", "", 0.99, t0, t0.Add(time.Second))
	if !ok || p99 > 0.15 {
		t.Errorf("history p99 %.3f s (ok %v), want ≤ 0.15", p99, ok)
	}
}
