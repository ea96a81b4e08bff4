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
// campaign deploys it. Every outcome's full selection state must hash to
// the golden, and the cache must resolve nearly every miss on the delta
// path: the seed it picks is what decides that.
func TestOutcomeCacheCampaignGolden(t *testing.T) {
	e, plan := campaignWorld(t, 2000)
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

// campaignWorld builds the engine and the three-phase campaign plan the
// cache tests below deploy, on an internet-shaped graph of numASes.
func campaignWorld(t *testing.T, numASes int) (*bgp.Engine, []sched.PlannedConfig) {
	t.Helper()
	g, o := bgp.InternetWorldForTest(t, 5, numASes)
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
	return e, plan
}

// digest is HashSelections of one outcome.
func digest(o *bgp.Outcome) uint64 {
	h := fnv.New64a()
	bgp.HashSelections(h, o)
	return h.Sum64()
}

// TestOutcomeCacheShedsCatchmentOnly pins the shedding rule over the
// campaign plan: a resident entry holds runner-ups exactly when its
// configuration is a base or it is the seedless root (the first miss),
// a shed outcome still answers every catchment and audit question, and
// as a delta prev it takes the full fallback with Propagate's result.
func TestOutcomeCacheShedsCatchmentOnly(t *testing.T) {
	e, plan := campaignWorld(t, 2000)
	cache := bgp.NewOutcomeCache()
	var root *bgp.Outcome
	for i, pc := range plan {
		out, err := cache.Propagate(e, pc.Config)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if i == 0 {
			root = out
		}
	}
	var shed *bgp.Outcome
	bases, sheds := 0, 0
	for _, out := range cache.Resident() {
		base := bgp.IsBase(out.Config())
		if want := base || out == root; bgp.HoldsRunnerUps(out) != want {
			t.Fatalf("%v (base %v, root %v): holds runner-ups %v, want %v",
				out.Config(), base, out == root, bgp.HoldsRunnerUps(out), want)
		}
		if base {
			bases++
		}
		if !bgp.HoldsRunnerUps(out) {
			sheds++
			shed = out
		}
		// Fig. 9 audits every campaign outcome; a shed one must audit as
		// its fresh propagation does.
		fresh, err := e.Propagate(out.Config())
		if err != nil {
			t.Fatal(err)
		}
		got, want := e.Audit(out), e.Audit(&fresh)
		if got.FracBestRel() != want.FracBestRel() || got.FracGaoRexford() != want.FracGaoRexford() {
			t.Fatalf("%v: audit %v/%v, fresh propagation %v/%v", out.Config(),
				got.FracBestRel(), got.FracGaoRexford(), want.FracBestRel(), want.FracGaoRexford())
		}
	}
	t.Logf("%d resident: %d bases, %d shed", cache.Len(), bases, sheds)
	if bases == 0 || sheds == 0 {
		t.Fatalf("%d bases and %d shed entries; the plan must exercise both", bases, sheds)
	}

	next := plan[len(plan)/2].Config
	want, err := e.Propagate(next)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := e.PropagateDeltaInfo(shed, shed.Config(), next)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != bgp.DeltaFullNoPrev {
		t.Fatalf("delta from a shed prev: mode %v, want %v", info.Mode, bgp.DeltaFullNoPrev)
	}
	if digest(&got) != digest(&want) {
		t.Fatal("delta from a shed prev differs from Propagate")
	}
	if !bgp.HoldsRunnerUps(&got) {
		t.Fatal("PropagateDeltaInfo returned an outcome without runner-ups")
	}
}

// TestOutcomeCacheReleaseShed releases shed outcomes a small cache has
// evicted and keeps deploying: the recycled arrays must not leak into
// later outcomes, which still match Propagate and still carry full
// state where they should.
func TestOutcomeCacheReleaseShed(t *testing.T) {
	e, plan := campaignWorld(t, 1000)
	cache := bgp.NewOutcomeCacheCap(8)
	released := 0
	var held []*bgp.Outcome
	for i, pc := range plan[:200] {
		out, err := cache.Propagate(e, pc.Config)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if want, err := e.Propagate(pc.Config); err != nil {
			t.Fatal(err)
		} else if digest(out) != digest(&want) {
			t.Fatalf("config %d: cached outcome differs from Propagate after %d releases", i, released)
		}
		if bgp.IsBase(pc.Config) && !bgp.HoldsRunnerUps(out) {
			t.Fatalf("config %d: base entry lost its runner-ups", i)
		}
		held = append(held, out)
		// Release what the cache no longer holds.
		resident := map[*bgp.Outcome]bool{}
		for _, r := range cache.Resident() {
			resident[r] = true
		}
		kept := held[:0]
		for _, h := range held {
			if resident[h] {
				kept = append(kept, h)
				continue
			}
			if !bgp.HoldsRunnerUps(h) {
				released++
			}
			h.Release()
		}
		held = kept
	}
	if released == 0 {
		t.Fatal("no shed outcome was evicted and released")
	}
}

// TestOutcomeCacheConcurrentCampaign deploys the campaign from 8
// goroutines interleaved over one cache: whatever seeds the racing
// misses pick and whichever copy wins a race, every outcome must equal
// the sequential run's.
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
