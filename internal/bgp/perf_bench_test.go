package bgp

import (
	"testing"

	"spooftrack/internal/topo"
)

// BenchmarkPropagatePoisonHeavy exercises the dense poison rows and the
// tier-1 route-leak walk: every link announces with a two-AS poison list,
// the platform's operational maximum.
func BenchmarkPropagatePoisonHeavy(b *testing.B) {
	g, o := worldForTest(b, 42, 4000)
	e, err := NewEngine(g, o, DefaultParams(42))
	if err != nil {
		b.Fatal(err)
	}
	cfg := allLinksConfig(7)
	for i := range cfg.Anns {
		p := o.Links[cfg.Anns[i].Link].Provider
		ns := g.Neighbors(p)
		cfg.Anns[i].Poison = []topo.ASN{g.ASN(ns[0].Idx), g.ASN(ns[len(ns)/2].Idx)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Propagate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagateParallel measures throughput with every core
// propagating concurrently — the campaign deployment pool's hot path.
// The scratch pool must keep per-call allocation flat here.
func BenchmarkPropagateParallel(b *testing.B) {
	g, o := worldForTest(b, 42, 4000)
	e, err := NewEngine(g, o, DefaultParams(42))
	if err != nil {
		b.Fatal(err)
	}
	cfg := allLinksConfig(7)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Propagate(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
