package peering

import (
	"testing"
	"time"

	"spooftrack/internal/stats"
)

func TestConvergenceModelQuantiles(t *testing.T) {
	m := DefaultConvergenceModel()
	rng := stats.NewRNG(1)
	const n = 20000
	under25, underMedianish := 0, 0
	for i := 0; i < n; i++ {
		d := m.Sample(rng)
		if d <= 0 {
			t.Fatal("non-positive convergence delay")
		}
		if d < 150*time.Second {
			under25++
		}
		if d < 30*time.Second {
			underMedianish++
		}
	}
	// ~99% under 2.5 minutes (the paper's cited operating point).
	if frac := float64(under25) / n; frac < 0.975 || frac > 0.999 {
		t.Fatalf("%.4f of samples under 2.5 min, want ~0.99", frac)
	}
	// ~50% under the median.
	if frac := float64(underMedianish) / n; frac < 0.45 || frac > 0.55 {
		t.Fatalf("%.4f of samples under median, want ~0.5", frac)
	}
}

func TestConvergenceModelDeterministic(t *testing.T) {
	m := DefaultConvergenceModel()
	a, b := stats.NewRNG(7), stats.NewRNG(7)
	for i := 0; i < 100; i++ {
		if m.Sample(a) != m.Sample(b) {
			t.Fatal("samples diverge for same seed")
		}
	}
}

func TestPaperSlotCoversThreeRounds(t *testing.T) {
	// The §IV-b design claim: a 70-minute slot with 20-minute traceroute
	// rounds yields at least 3 post-convergence rounds with high
	// probability under the cited convergence distribution. Rounds fire
	// at 20, 40 and 60 minutes, so all three follow convergence iff it
	// takes under 20 minutes.
	m := DefaultConvergenceModel()
	rng := stats.NewRNG(3)
	const n = 10000
	ok := 0
	for i := 0; i < n; i++ {
		if m.Sample(rng) < 20*time.Minute {
			ok++
		}
	}
	if frac := float64(ok) / n; frac < 0.98 {
		t.Fatalf("only %.4f of slots cover 3 rounds, want >= 0.98", frac)
	}
}
