package core

import (
	"runtime"
	"slices"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/sched"
)

// runVariant builds a fresh world (the platform clock and history are
// stateful, so variants cannot share one) and runs the same plan prefix
// under the given options.
func runVariant(t *testing.T, seed uint64, nConfigs int, opts CampaignOptions) *Campaign {
	t.Helper()
	w := smallWorld(t, seed)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := w.RunCampaign(plan[:nConfigs], opts)
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

func sameCampaign(t *testing.T, label string, a, b *Campaign) {
	t.Helper()
	if a.Elapsed != b.Elapsed {
		t.Fatalf("%s: elapsed %v vs %v", label, a.Elapsed, b.Elapsed)
	}
	if len(a.Sources) != len(b.Sources) {
		t.Fatalf("%s: %d vs %d sources", label, len(a.Sources), len(b.Sources))
	}
	for k := range a.Sources {
		if a.Sources[k] != b.Sources[k] {
			t.Fatalf("%s: source %d differs", label, k)
		}
	}
	for c := range a.Catchments {
		for k := range a.Catchments[c] {
			if a.Catchments[c][k] != b.Catchments[c][k] {
				t.Fatalf("%s: catchment differs at config %d source %d: %d vs %d",
					label, c, k, a.Catchments[c][k], b.Catchments[c][k])
			}
		}
	}
	for c := range a.Plan {
		av, bv := outcomeOf(t, a, c).CatchmentVector(), outcomeOf(t, b, c).CatchmentVector()
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%s: outcome %d differs at AS %d", label, c, i)
			}
		}
	}
}

// outcomeOf returns configuration c's outcome: the one a measured
// campaign kept, or for a truth campaign, which keeps none, the one its
// platform derives again.
func outcomeOf(t *testing.T, camp *Campaign, c int) *bgp.Outcome {
	t.Helper()
	if camp.Outcomes != nil {
		return camp.Outcomes[c]
	}
	out, err := camp.World.Platform.Propagate(camp.Plan[c].Config)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunCampaignParallelismInvariant is the acceptance check for the
// parallel deployment pool: campaigns must be bit-identical at
// Parallelism 1 and GOMAXPROCS, with and without the outcome cache.
// Run under -race this also exercises the pool for data races.
func TestRunCampaignParallelismInvariant(t *testing.T) {
	const seed, n = 11, 20
	base := runVariant(t, seed, n, CampaignOptions{Parallelism: 1})
	wide := runVariant(t, seed, n, CampaignOptions{Parallelism: runtime.GOMAXPROCS(0)})
	sameCampaign(t, "parallelism", base, wide)
	nocacheSeq := runVariant(t, seed, n, uncached(CampaignOptions{Parallelism: 1}))
	sameCampaign(t, "no-cache sequential", base, nocacheSeq)
	nocacheWide := runVariant(t, seed, n, uncached(CampaignOptions{}))
	sameCampaign(t, "no-cache parallel", base, nocacheWide)
}

// TestMeasuredCampaignPatchedOutcomes deploys a measured campaign — the
// plan's 64 location bases and 56 derived configurations after them —
// from four workers through the outcome cache, which hands back most outcomes
// as patches over its seeds while the workers derive concurrently, and
// again without the cache, where every outcome is a dense propagation.
// Every outcome must answer every query the same, AS by AS. Run under
// -race this also covers the engine's shared free list of patches.
func TestMeasuredCampaignPatchedOutcomes(t *testing.T) {
	const seed, n = 15, 120
	cached := runVariant(t, seed, n, CampaignOptions{Parallelism: 4})
	dense := runVariant(t, seed, n, uncached(CampaignOptions{Parallelism: 4}))
	g := cached.World.Graph
	var gp, dp []int
	for c := range cached.Plan {
		got, want := cached.Outcomes[c], dense.Outcomes[c]
		for i := 0; i < g.NumASes(); i++ {
			if got.CatchmentOf(i) != want.CatchmentOf(i) || got.NextHop(i) != want.NextHop(i) ||
				got.PathLen(i) != want.PathLen(i) || got.ClassOf(i) != want.ClassOf(i) ||
				got.DataPathLen(i) != want.DataPathLen(i) || !slices.Equal(got.AppendASPath(nil, i), want.AppendASPath(nil, i)) {
				t.Fatalf("config %d (%v), AS %d: the cached outcome answers differently", c, cached.Plan[c].Config, i)
			}
			gp, dp = got.AppendDataPath(gp[:0], i), want.AppendDataPath(dp[:0], i)
			if !slices.Equal(gp, dp) {
				t.Fatalf("config %d, AS %d: data path %v, want %v", c, i, gp, dp)
			}
		}
	}
	sameCampaign(t, "measured", cached, dense)
}

// TestRunCampaignTruthParallelismInvariant covers the truth path (no
// measurement pipeline), where deployment is the only fan-out.
func TestRunCampaignTruthParallelismInvariant(t *testing.T) {
	const seed, n = 12, 30
	base := runVariant(t, seed, n, CampaignOptions{UseTruth: true, Parallelism: 1})
	wide := runVariant(t, seed, n, CampaignOptions{UseTruth: true})
	sameCampaign(t, "truth", base, wide)
}

// TestOutcomeCacheReusedAcrossConfigs checks that repeated deployments
// of identical configurations hit the platform cache while the clock
// still advances per deployment.
func TestOutcomeCacheReusedAcrossConfigs(t *testing.T) {
	w := smallWorld(t, 13)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	dup := []sched.PlannedConfig{plan[0], plan[1], plan[0], plan[1], plan[0]}
	camp, err := w.RunCampaign(dup, CampaignOptions{UseTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := w.Platform.CacheStats()
	if misses != 2 || hits != 3 {
		t.Fatalf("cache stats hits=%d misses=%d, want 3/2", hits, misses)
	}
	// Both configurations are location-phase bases, so the cache keeps
	// them and a later lookup returns the same pointer.
	for _, pc := range dup[:2] {
		first, err := w.Platform.Propagate(pc.Config)
		if err != nil {
			t.Fatal(err)
		}
		again, err := w.Platform.Propagate(pc.Config)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Fatalf("%v: the cached seed is not pointer-stable", pc.Config)
		}
	}
	if hits, _ := w.Platform.CacheStats(); hits != 7 {
		t.Fatalf("%d hits after four lookups of resident seeds, want 7", hits)
	}
	// The simulated clock charges every deployment, cached or not.
	want := 5 * w.Platform.Constraints().ConfigDuration
	if camp.Elapsed != want {
		t.Fatalf("elapsed %v, want %v", camp.Elapsed, want)
	}
}
