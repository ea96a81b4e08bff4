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
// slices and per-pair maps the pipeline once built on the way. With wire
// feeds it also allocates the MRT round trip's updates: 113 on this
// 30-collector world, against 9250 before the pass ran on a reused
// scratch, so a ceiling of 200 catches a per-traceroute or per-pair
// allocation coming back.
func TestMeasureOutcomeAllocs(t *testing.T) {
	for _, tc := range []struct {
		wireFeeds bool
		limit     float64
	}{
		{false, 2*30 + 16}, // two per collector of measureWorld's 30
		{true, 200},
	} {
		w, out := warmOutcome(t, tc.wireFeeds)
		got := testing.AllocsPerRun(20, func() {
			if _, err := w.MeasureOutcome(out, 3, stats.NewRNG(7)); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.limit {
			t.Fatalf("warm MeasureOutcome, wire feeds %v: %.0f allocs, want at most %.0f", tc.wireFeeds, got, tc.limit)
		}
		t.Logf("warm MeasureOutcome, wire feeds %v: %.0f allocs (limit %.0f)", tc.wireFeeds, got, tc.limit)
	}
}
