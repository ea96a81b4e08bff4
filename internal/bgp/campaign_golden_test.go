package bgp_test

import (
	"hash/fnv"
	"sort"
	"sync"
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
// campaign deploys it: each outcome is read and released, so derived
// outcomes are built in recycled arrays. Every outcome's full selection
// state must hash to the golden, the cache must resolve nearly every miss
// on the delta path (the seed it picks is what decides that), and it must
// end up holding the plan's bases and nothing else.
func TestOutcomeCacheCampaignGolden(t *testing.T) {
	e, plan := campaignWorld(t, 2000)
	cache := bgp.NewOutcomeCache()
	h := fnv.New64a()
	bases := 0
	for i, pc := range plan {
		out, err := cache.Propagate(e, pc.Config)
		if err != nil {
			t.Fatalf("config %d (%v): %v", i, pc.Config, err)
		}
		bgp.HashSelections(h, out)
		out.Release()
		if bgp.IsBase(pc.Config) {
			bases++
		}
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
	if st.Size != bases {
		t.Errorf("cache holds %d outcomes, want the plan's %d bases", st.Size, bases)
	}
}

// campaignWorld builds the engine and the three-phase campaign plan the
// cache tests below deploy, on an internet-shaped graph of numASes.
func campaignWorld(t *testing.T, numASes int) (*bgp.Engine, []sched.PlannedConfig) {
	t.Helper()
	g, o := bgp.InternetWorldForTest(t, 5, numASes)
	e, err := bgp.NewEngine(g, o, bgp.DefaultParams(42))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.GeneratePlan(sched.PlanParams{NumLinks: len(o.Links), PoisonTargets: poisonTargets(g, o)})
	if err != nil {
		t.Fatal(err)
	}
	return e, plan
}

// digest is HashSelections of one outcome.
func digest(o *bgp.Outcome) uint64 {
	h := fnv.New64a()
	bgp.HashSelections(h, o)
	return h.Sum64()
}

// TestOutcomeCacheShedsCatchmentOnly pins what the cache keeps over the
// campaign plan: a base comes back with its runner-ups and stays
// resident; every other configuration comes back derived, without
// runner-ups, and is not kept. A derived outcome still answers every
// catchment and audit question, and as a delta prev it takes the full
// fallback with Propagate's result.
func TestOutcomeCacheShedsCatchmentOnly(t *testing.T) {
	e, plan := campaignWorld(t, 2000)
	cache := bgp.NewOutcomeCache()
	var derived *bgp.Outcome
	bases, derivs := 0, 0
	for i, pc := range plan {
		out, err := cache.Propagate(e, pc.Config)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		base := bgp.IsBase(pc.Config)
		resident := false
		for _, r := range cache.Resident() {
			resident = resident || r == out
		}
		if bgp.HoldsRunnerUps(out) != base || resident != base {
			t.Fatalf("config %d (%v, base %v): holds runner-ups %v, resident %v",
				i, pc.Config, base, bgp.HoldsRunnerUps(out), resident)
		}
		if base {
			bases++
			continue
		}
		derivs++
		derived = out
		// Fig. 9 audits every campaign outcome; a derived one must audit as
		// its fresh propagation does.
		fresh, err := e.Propagate(pc.Config)
		if err != nil {
			t.Fatal(err)
		}
		got, want := e.Audit(out), e.Audit(&fresh)
		if got.FracBestRel() != want.FracBestRel() || got.FracGaoRexford() != want.FracGaoRexford() {
			t.Fatalf("config %d: audit %v/%v, fresh propagation %v/%v", i,
				got.FracBestRel(), got.FracGaoRexford(), want.FracBestRel(), want.FracGaoRexford())
		}
	}
	t.Logf("%d configs: %d bases kept, %d derived", len(plan), bases, derivs)
	if size := cache.StatsSnapshot().Size; size != bases || derivs == 0 {
		t.Fatalf("%d resident after %d bases and %d derived configs", size, bases, derivs)
	}

	next := plan[len(plan)/2].Config
	want, err := e.Propagate(next)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := e.PropagateDeltaInfo(derived, derived.Config(), next)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != bgp.DeltaFullNoPrev {
		t.Fatalf("delta from a derived prev: mode %v, want %v", info.Mode, bgp.DeltaFullNoPrev)
	}
	if digest(&got) != digest(&want) {
		t.Fatal("delta from a derived prev differs from Propagate")
	}
	if !bgp.HoldsRunnerUps(&got) {
		t.Fatal("PropagateDeltaInfo returned an outcome without runner-ups")
	}
}

// TestOutcomeCacheReleaseShed releases every outcome a small cache
// returns, as a truth campaign does once it has read a catchment row, and
// keeps deploying. Derived outcomes, and the bases the full cache did not
// admit, hand their arrays to later ones, which must still match
// Propagate. On a resident seed Release is a no-op: the seed keeps its
// runner-ups, still answers queries as Propagate does, and still seeds a
// delta.
func TestOutcomeCacheReleaseShed(t *testing.T) {
	e, plan := campaignWorld(t, 1000)
	cache := bgp.NewOutcomeCacheCap(8)
	var seeds []*bgp.Outcome
	unadmitted := 0
	for i, pc := range plan[:200] {
		out, err := cache.Propagate(e, pc.Config)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if want, err := e.Propagate(pc.Config); err != nil {
			t.Fatal(err)
		} else if digest(out) != digest(&want) {
			t.Fatalf("config %d: cached outcome differs from Propagate", i)
		}
		if bgp.HoldsRunnerUps(out) {
			seeds = append(seeds, out)
		} else if bgp.IsBase(pc.Config) {
			unadmitted++
		}
		out.Release()
	}
	if st := cache.StatsSnapshot(); len(seeds) != 8 || st.Size != 8 || unadmitted == 0 {
		t.Fatalf("%d seeds, %d resident, %d bases not admitted: the plan must overfill the cache",
			len(seeds), st.Size, unadmitted)
	}
	for _, seed := range seeds {
		cfg := seed.Config()
		want, err := e.Propagate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bgp.HoldsRunnerUps(seed) || digest(seed) != digest(&want) {
			t.Fatalf("%v: a released seed lost its state", cfg)
		}
		// One announcement lengthened: the delta step the seed exists for.
		next := bgp.Config{Anns: append([]bgp.Announcement(nil), cfg.Anns...)}
		next.Anns[0].Prepend = 1
		got, info, err := e.PropagateDeltaInfo(seed, cfg, next)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode == bgp.DeltaFullNoPrev {
			t.Fatalf("%v: a released seed no longer seeds", cfg)
		}
		got.Release()
	}
}

// TestOutcomeCacheConcurrentCampaign deploys the campaign from 8
// goroutines interleaved over one cache, each releasing what it got back:
// whatever seeds the racing misses pick and whichever copy wins a race,
// every outcome must equal the sequential run's.
func TestOutcomeCacheConcurrentCampaign(t *testing.T) {
	e, plan := campaignWorld(t, 1000)
	want := make([]uint64, len(plan))
	seq := bgp.NewOutcomeCache()
	for i, pc := range plan {
		out, err := seq.Propagate(e, pc.Config)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = digest(out)
	}

	const workers = 8
	cache := bgp.NewOutcomeCache()
	got := make([]uint64, len(plan))
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(plan); i += workers {
				out, err := cache.Propagate(e, plan[i].Config)
				if err != nil {
					errs <- err
					return
				}
				got[i] = digest(out)
				out.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range plan {
		if got[i] != want[i] {
			t.Fatalf("config %d (%v): concurrent outcome differs from the sequential run", i, plan[i].Config)
		}
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
