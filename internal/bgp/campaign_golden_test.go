package bgp_test

import (
	"hash/fnv"
	"sort"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/sched"
	"spooftrack/internal/topo"
)

// campaignGolden is the FNV-64a digest of every outcome's selection
// state over the truth campaign below. It equals the digest of the same
// plan propagated in full, config by config; any converged delta seed
// must yield the byte-identical outcome, so no seeding rule may move it.
const campaignGolden = 0x44b12053861faba7

// maxFullMissFrac bounds the share of cache misses the truth campaign
// may resolve by full propagation instead of a delta step.
const maxFullMissFrac = 0.05

// campaignPoisonPerLink is how many provider neighbors the plan poisons
// per link, highest degree first: 42 targets over seven links, the shape
// of the benchmark's 40-target truth campaign.
const campaignPoisonPerLink = 6

// TestOutcomeCacheCampaignGolden runs the paper's three-phase campaign
// (locations, prepending, poisoning) in plan order through one
// OutcomeCache on a 2 000-AS internet-shaped graph, the way a truth
// campaign deploys it. Every outcome's full selection state must hash to
// the golden, and the cache must resolve nearly every miss on the delta
// path: the seed it picks is what decides that.
func TestOutcomeCacheCampaignGolden(t *testing.T) {
	g, o := bgp.InternetWorldForTest(t, 5, 2000)
	e, err := bgp.NewEngine(g, o, bgp.DefaultParams(42))
	if err != nil {
		t.Fatal(err)
	}
	pp := sched.DefaultPlanParams(len(o.Links))
	pp.PoisonTargets = poisonTargets(g, o)
	plan, err := sched.GeneratePlan(pp)
	if err != nil {
		t.Fatal(err)
	}

	cache := bgp.NewOutcomeCache()
	h := fnv.New64a()
	for i, pc := range plan {
		out, err := cache.Propagate(e, pc.Config)
		if err != nil {
			t.Fatalf("config %d (%v): %v", i, pc.Config, err)
		}
		bgp.HashSelections(h, out)
	}
	st := cache.StatsSnapshot()
	frac := float64(st.DeltaFull) / float64(st.Misses)
	t.Logf("%d configs, %d misses, %d full (%.3f), digest %#x",
		len(plan), st.Misses, st.DeltaFull, frac, h.Sum64())
	if got := h.Sum64(); got != campaignGolden {
		t.Errorf("selection digest %#x, golden %#x", got, uint64(campaignGolden))
	}
	if frac > maxFullMissFrac {
		t.Errorf("%d of %d misses ran in full (%.3f), want <= %.2f",
			st.DeltaFull, st.Misses, frac, maxFullMissFrac)
	}
}

// poisonTargets picks, per link, the campaignPoisonPerLink highest-degree
// neighbors of the link's provider (ties by ASN).
func poisonTargets(g *topo.Graph, o bgp.Origin) map[bgp.LinkID][]topo.ASN {
	out := make(map[bgp.LinkID][]topo.ASN, len(o.Links))
	for l, link := range o.Links {
		var ns []int
		for _, nb := range g.Neighbors(link.Provider) {
			ns = append(ns, nb.Idx)
		}
		sort.Slice(ns, func(a, b int) bool {
			if da, db := g.Degree(ns[a]), g.Degree(ns[b]); da != db {
				return da > db
			}
			return g.ASN(ns[a]) < g.ASN(ns[b])
		})
		if len(ns) > campaignPoisonPerLink {
			ns = ns[:campaignPoisonPerLink]
		}
		for _, idx := range ns {
			out[bgp.LinkID(l)] = append(out[bgp.LinkID(l)], g.ASN(idx))
		}
	}
	return out
}
