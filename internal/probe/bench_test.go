package probe

import (
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// BenchmarkProbeRound prices one budget-bounded scan round — the unit
// of work the daemon's scan loop schedules per interval.
func BenchmarkProbeRound(b *testing.B) {
	net, out, plat := probeWorld(b, 301, 0)
	p := newTestProber(b, net, out, plat, Config{Budget: 100, PerKind: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Round(nil)
	}
}

// fullConfig announces on every link, the heaviest propagation shape.
func fullConfig(plat interface{ NumLinks() int }) bgp.Config {
	anns := make([]bgp.Announcement, plat.NumLinks())
	for i := range anns {
		anns[i] = bgp.Announcement{Link: bgp.LinkID(i)}
	}
	return bgp.Config{Anns: anns}
}

// BenchmarkProbeScanBudget gates the perturbation a probe-scan loop
// imposes on campaign propagation: uncached propagation while a scan
// loop runs rounds on another goroutine — the daemon's steady state — may
// cost at most 3x propagation with no scan running. The budget is
// generous enough for scheduling noise and tight enough to catch a lock
// leaking across the subsystems.
func BenchmarkProbeScanBudget(b *testing.B) {
	net, out, plat := probeWorld(b, 302, 0)
	p := newTestProber(b, net, out, plat, Config{Budget: 100, PerKind: 3})
	cfg := fullConfig(plat)
	propagate := func() float64 {
		const n = 40
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := plat.PropagateAttempt(cfg, 0, true, nil); err != nil {
				b.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / n
	}
	duringScan := func() float64 {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					p.Round(nil)
				}
			}
		}()
		ns := propagate()
		close(stop)
		<-done
		return ns
	}
	var ns []float64
	for i := 0; i < b.N; i++ {
		ns = stats.MinOf(10, propagate, duringScan)
	}
	ratio := ns[1] / ns[0]
	b.ReportMetric(ns[0], "quiet-ns/op")
	b.ReportMetric(ns[1], "scan-ns/op")
	b.ReportMetric(ratio, "scan/quiet")
	if ratio > 3 {
		b.Fatalf("propagation during a probe scan costs %.2fx quiet propagation, budget is 3x", ratio)
	}
}
