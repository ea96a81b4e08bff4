package core

import (
	"runtime"
	"slices"
	"testing"

	"spooftrack/internal/bgp"
)

// warmCampaignSlack is what a warm truth campaign may allocate beyond
// its per-AS terms: the plan-sized bookkeeping (per-config RNGs, the
// catchment row headers, a cache key per lookup) and a propagation
// scratch rebuilt if a collection emptied the engine's sync.Pool.
const warmCampaignSlack = 256 << 10

// TestTruthCampaignRetainsSeedsOnly: a truth campaign keeps catchment
// rows, not outcomes. Campaign.Outcomes is nil, the platform cache holds
// exactly the plan's base configurations (the only ones a delta can seed
// from), so a second campaign on the warm platform hits on every base
// and misses on everything else, and every derived outcome is released
// into the engine's free list, so that second campaign allocates no
// outcome arrays: at most 25 B/AS per base (a seed, were it not
// resident) and 2 B/AS per configuration (its catchment row), plus a
// fixed slack.
func TestTruthCampaignRetainsSeedsOnly(t *testing.T) {
	w := smallWorld(t, 14)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	bases := 0
	for _, pc := range plan {
		if isBaseConfig(pc.Config) {
			bases++
		}
	}
	opts := CampaignOptions{UseTruth: true, Parallelism: 1}
	camp, err := w.RunCampaign(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Outcomes != nil {
		t.Fatalf("truth campaign kept %d outcomes", len(camp.Outcomes))
	}

	h0, m0 := w.Platform.CacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	again, err := w.RunCampaign(plan, opts)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	if h1, m1 := w.Platform.CacheStats(); h1-h0 != uint64(bases) || m1-m0 != uint64(len(plan)-bases) {
		t.Fatalf("warm campaign: %d hits %d misses, want the plan's %d bases resident and nothing else",
			h1-h0, m1-m0, bases)
	}
	for c := range camp.Catchments {
		if !slices.Equal(camp.Catchments[c], again.Catchments[c]) {
			t.Fatalf("warm campaign differs at config %d", c)
		}
	}

	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bound not meaningful")
	}
	n := uint64(w.Graph.NumASes())
	limit := uint64(bases)*25*n + uint64(len(plan))*2*n + warmCampaignSlack
	got := ms1.TotalAlloc - ms0.TotalAlloc
	t.Logf("warm truth campaign: %d configs (%d bases) over %d ASes allocated %d B (limit %d)",
		len(plan), bases, n, got, limit)
	if got > limit {
		t.Fatalf("warm truth campaign allocated %d B, want at most %d", got, limit)
	}
}

// isBaseConfig reports whether cfg announces without prepending,
// poisoning or communities: the configurations an outcome cache keeps.
func isBaseConfig(cfg bgp.Config) bool {
	for _, a := range cfg.Anns {
		if a.Prepend != 0 || len(a.Poison) != 0 || len(a.Communities) != 0 {
			return false
		}
	}
	return true
}
