package bgp

import (
	"sort"
	"testing"
	"time"

	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// internetWorldForTest is worldForTest over the internet-scale generator
// tiers (topo.InternetGenParams) instead of the 4k paper-scale defaults.
func internetWorldForTest(t testing.TB, seed uint64, numASes int) (*topo.Graph, Origin) {
	g, err := topo.Generate(topo.InternetGenParams(seed, numASes))
	if err != nil {
		t.Fatal(err)
	}
	transit := g.TransitASes()
	sort.Slice(transit, func(i, j int) bool {
		ci, cj := g.NumCustomers(transit[i]), g.NumCustomers(transit[j])
		if ci != cj {
			return ci > cj
		}
		return transit[i] < transit[j]
	})
	var provs []int
	for _, idx := range transit {
		if !g.IsTier1(idx) {
			provs = append(provs, idx)
		}
		if len(provs) == 7 {
			break
		}
	}
	if len(provs) < 7 {
		t.Fatalf("topology too small for 7 providers")
	}
	links := make([]Link, 7)
	for i, p := range provs {
		links[i] = Link{Name: "mux" + string(rune('A'+i)), Provider: p}
	}
	// The generator never numbers a topology AS with the platform's
	// origin ASN, at any size.
	return g, Origin{ASN: 47065, Links: links}
}

// deltaStep returns one PropagateDeltaInfo step for a fixed prev -> cfg
// transition, in the campaign-loop usage pattern: each step's outcome is
// inspected and then released back to the engine's free list. It fails
// the benchmark if the delta path falls back to full propagation: these
// benchmarks exist to quantify the incremental path, and a silent
// fallback would report full-propagation numbers under a delta name.
func deltaStep(b *testing.B, e *Engine, prevCfg, cfg Config) func() {
	prev, err := e.Propagate(prevCfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up: verify the transition rides the incremental path.
	if out, info, err := e.PropagateDeltaInfo(&prev, prevCfg, cfg); err != nil {
		b.Fatal(err)
	} else if !info.Mode.Incremental() {
		b.Fatalf("delta fell back to full propagation (mode %s, seeds %d)", info.Mode, info.Seeds)
	} else {
		out.Release()
	}
	return func() {
		out, _, err := e.PropagateDeltaInfo(&prev, prevCfg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// fullStep returns one full propagation of cfg, released like a delta
// step's outcome so a full-vs-delta comparison isolates the algorithms.
func fullStep(b *testing.B, e *Engine, cfg Config) func() {
	return func() {
		out, err := e.Propagate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func benchStep(b *testing.B, step func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// nsPerStep times n calls of step.
func nsPerStep(n int, step func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// BenchmarkPropagateDeltaBudget gates the delta path at the 4k tier: one
// link's prepend changing between configurations — the distance a plan
// walks between most adjacent campaign configurations — recomputed
// incrementally may cost at most 1/5 of a full propagation of the
// all-links configuration it starts from. The design target is 10x; the
// budget leaves headroom for scheduling noise.
func BenchmarkPropagateDeltaBudget(b *testing.B) {
	g, o := worldForTest(b, 42, 4000)
	e, err := NewEngine(g, o, DefaultParams(42))
	if err != nil {
		b.Fatal(err)
	}
	prevCfg := allLinksConfig(7)
	cfg := cloneConfig(prevCfg)
	cfg.Anns[3].Prepend = 1
	full, delta := fullStep(b, e, prevCfg), deltaStep(b, e, prevCfg, cfg)
	var ns []float64
	for i := 0; i < b.N; i++ {
		ns = stats.MinOf(15,
			func() float64 { return nsPerStep(2, full) },
			func() float64 { return nsPerStep(20, delta) })
	}
	speedup := ns[0] / ns[1]
	b.ReportMetric(ns[0], "full-ns/op")
	b.ReportMetric(ns[1], "delta-ns/op")
	b.ReportMetric(speedup, "full/delta")
	if speedup < 5 {
		b.Fatalf("delta one-link step is %.1fx faster than full propagation, budget is at least 5x", speedup)
	}
}

// BenchmarkPropagateDeltaPoisonToggle: one link adds a poison of a
// non-tier-1 provider neighbor — the poisoning phase's per-config step.
func BenchmarkPropagateDeltaPoisonToggle(b *testing.B) {
	g, o := worldForTest(b, 42, 4000)
	e, err := NewEngine(g, o, DefaultParams(42))
	if err != nil {
		b.Fatal(err)
	}
	prevCfg := allLinksConfig(7)
	cfg := cloneConfig(prevCfg)
	prov := o.Links[2].Provider
	target := topo.ASN(0)
	for _, n := range g.Neighbors(prov) {
		if !g.IsTier1(n.Idx) {
			target = g.ASN(n.Idx)
			break
		}
	}
	if target == 0 {
		b.Fatal("no non-tier-1 neighbor to poison")
	}
	cfg.Anns[2].Poison = []topo.ASN{target}
	benchStep(b, deltaStep(b, e, prevCfg, cfg))
}

// BenchmarkPropagateDelta80k: the internet-scale tier. The issue's bar is
// < 100ms per one-link-diff config at 80k ASes.
func BenchmarkPropagateDelta80k(b *testing.B) {
	g, o := internetWorldForTest(b, 42, 80000)
	e, err := NewEngine(g, o, DefaultParams(42))
	if err != nil {
		b.Fatal(err)
	}
	prevCfg := allLinksConfig(7)
	cfg := cloneConfig(prevCfg)
	cfg.Anns[3].Prepend = 2
	benchStep(b, deltaStep(b, e, prevCfg, cfg))
}

// BenchmarkPropagateFull80k is the full-recomputation baseline at the 80k
// tier, for the speedup ratio in EXPERIMENTS.md.
func BenchmarkPropagateFull80k(b *testing.B) {
	g, o := internetWorldForTest(b, 42, 80000)
	e, err := NewEngine(g, o, DefaultParams(42))
	if err != nil {
		b.Fatal(err)
	}
	benchStep(b, fullStep(b, e, allLinksConfig(7)))
}
