package core

import (
	"runtime"
	"testing"

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
	for c := range a.Outcomes {
		av, bv := a.Outcomes[c].CatchmentVector(), b.Outcomes[c].CatchmentVector()
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%s: outcome %d differs at AS %d", label, c, i)
			}
		}
	}
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
	nocacheSeq := runVariant(t, seed, n, CampaignOptions{Parallelism: 1, NoOutcomeCache: true})
	sameCampaign(t, "no-cache sequential", base, nocacheSeq)
	nocacheWide := runVariant(t, seed, n, CampaignOptions{NoOutcomeCache: true})
	sameCampaign(t, "no-cache parallel", base, nocacheWide)
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
	// Cache hits are pointer-stable.
	if camp.Outcomes[0] != camp.Outcomes[2] || camp.Outcomes[0] != camp.Outcomes[4] {
		t.Fatal("duplicate configs did not reuse the cached outcome")
	}
	// The simulated clock charges every deployment, cached or not.
	want := 5 * w.Platform.Constraints().ConfigDuration
	if camp.Elapsed != want {
		t.Fatalf("elapsed %v, want %v", camp.Elapsed, want)
	}
}
