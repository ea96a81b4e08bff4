//go:build !race

package core

import (
	"testing"

	"spooftrack/internal/stats"
)

// Not under the race detector: there sync.Pool drops a quarter of what
// is put back, so the scratch is cold at random.

// TestMeasureOutcomeAllocs pins the allocation diet without a clock: a
// warm MeasureOutcome allocates only its result, the measurement and its
// catchment vector, with wire feeds or without. The pass once allocated
// 9250 times on this 30-collector world with wire feeds, for the
// per-traceroute slices and per-pair maps it built on the way; on a
// reused scratch 37 without wire feeds (the collector-path map and one
// AS-path per collector) and 113 with them (the MRT decoder's Update and
// path per record on top); with the collector paths, the MRT export and
// the decoded paths on the scratch too, 2. A ceiling of 4 catches a
// per-collector or per-record allocation coming back.
func TestMeasureOutcomeAllocs(t *testing.T) {
	const limit = 4
	for _, wireFeeds := range []bool{false, true} {
		w, out := warmOutcome(t, wireFeeds)
		got := testing.AllocsPerRun(20, func() {
			if _, err := w.MeasureOutcome(out, 3, stats.NewRNG(7)); err != nil {
				t.Fatal(err)
			}
		})
		if got > limit {
			t.Fatalf("warm MeasureOutcome, wire feeds %v: %.0f allocs, want at most %d", wireFeeds, got, limit)
		}
		t.Logf("warm MeasureOutcome, wire feeds %v: %.0f allocs (limit %d)", wireFeeds, got, limit)
	}
}
