package trace

import "testing"

// BenchmarkStartDisabled measures the per-span-site cost instrumented
// hot paths pay when tracing is off: it must stay at a couple of atomic
// loads with zero allocation.
func BenchmarkStartDisabled(b *testing.B) {
	prev := Global()
	SetGlobal(New(Options{}))
	defer SetGlobal(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Start("bench")
		sp.Count("n", 1)
		sp.End()
	}
}
