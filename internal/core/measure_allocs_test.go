//go:build !race

package core

import (
	"testing"

	"spooftrack/internal/stats"
)

// Not under the race detector: there sync.Pool drops a quarter of what
// is put back, so the scratch is cold at random.

// TestMeasureOutcomeAllocs pins the allocation diet without a clock: a
// warm MeasureOutcome allocates its result, the collector-path map and
// one AS-path per collector — not the thousands of per-traceroute
// slices and per-pair maps the pipeline once built on the way.
func TestMeasureOutcomeAllocs(t *testing.T) {
	w := measureWorld(t, 1, false)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.RunCampaign(plan[:4], CampaignOptions{UseTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	out := c.Outcomes[3]
	limit := float64(2*len(w.Vantages.Collectors) + 16)
	got := testing.AllocsPerRun(20, func() {
		if _, err := w.MeasureOutcome(out, 3, stats.NewRNG(7)); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Fatalf("warm MeasureOutcome: %.0f allocs, want at most %.0f", got, limit)
	}
	t.Logf("warm MeasureOutcome: %.0f allocs (limit %.0f)", got, limit)
}
