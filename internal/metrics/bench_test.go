package metrics

import "testing"

// BenchmarkPlainCounter is the baseline the labeled-vector budget is
// measured against (vector observe must stay within 2× of this).
func BenchmarkPlainCounter(b *testing.B) {
	c := NewRegistry().Counter("events_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkVecObserve resolves an already-seen label set and increments
// its counter — the pipeline's hot path shape (per-link counters are
// single-label vectors). Must be 0 allocs/op and within 2× of
// BenchmarkPlainCounter.
func BenchmarkVecObserve(b *testing.B) {
	v := NewRegistry().CounterVec("link_packets_total", "link")
	v.With("3").Inc() // pre-seed the label set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("3").Inc()
	}
}
