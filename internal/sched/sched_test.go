package sched

import (
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

func TestGeneratePlanPaperCounts(t *testing.T) {
	// With 7 links, removing up to 3, and 347 poison targets, the plan
	// must match the paper's 64 + 294 + 347 = 705 configurations.
	targets := map[bgp.LinkID][]topo.ASN{}
	asn := topo.ASN(1000)
	for l := 0; l < 7; l++ {
		n := 50
		if l == 6 {
			n = 47
		}
		for k := 0; k < n; k++ {
			targets[bgp.LinkID(l)] = append(targets[bgp.LinkID(l)], asn)
			asn++
		}
	}
	p := DefaultPlanParams(7)
	p.PoisonTargets = targets
	plan, err := GeneratePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := PhaseCounts(plan)
	if counts[PhaseLocations] != 64 {
		t.Errorf("locations = %d, want 64", counts[PhaseLocations])
	}
	if counts[PhasePrepending] != 294 {
		t.Errorf("prepending = %d, want 294", counts[PhasePrepending])
	}
	if counts[PhasePoisoning] != 347 {
		t.Errorf("poisoning = %d, want 347", counts[PhasePoisoning])
	}
	if len(plan) != 705 {
		t.Errorf("total = %d, want 705", len(plan))
	}
}

func TestGeneratePlanOrdering(t *testing.T) {
	p := DefaultPlanParams(4)
	p.RemoveUpTo = 2
	p.PoisonTargets = map[bgp.LinkID][]topo.ASN{0: {100, 101}}
	plan, err := GeneratePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	// First config announces from all links with no prepending.
	first := plan[0]
	if first.Phase != PhaseLocations || len(first.Config.Anns) != 4 {
		t.Fatalf("first config %v, want full anycast", first)
	}
	for _, a := range first.Config.Anns {
		if a.Prepend != 0 || len(a.Poison) != 0 {
			t.Fatal("baseline config must be plain anycast")
		}
	}
	// Location-phase subset sizes never increase.
	prevSize := 5
	for _, pc := range plan {
		if pc.Phase != PhaseLocations {
			break
		}
		if len(pc.Config.Anns) > prevSize {
			t.Fatal("location subsets must come in decreasing size order")
		}
		prevSize = len(pc.Config.Anns)
	}
	// Phases come in order.
	last := PhaseLocations
	for _, pc := range plan {
		if pc.Phase < last {
			t.Fatal("phases out of order")
		}
		last = pc.Phase
	}
	// PhaseEnd boundaries are consistent with counts.
	counts := PhaseCounts(plan)
	if PhaseEnd(plan, PhaseLocations) != counts[PhaseLocations] {
		t.Fatal("PhaseEnd(locations) inconsistent")
	}
	if PhaseEnd(plan, PhasePrepending) != counts[PhaseLocations]+counts[PhasePrepending] {
		t.Fatal("PhaseEnd(prepending) inconsistent")
	}
	if PhaseEnd(plan, PhasePoisoning) != len(plan) {
		t.Fatal("PhaseEnd(poisoning) inconsistent")
	}
}

func TestGeneratePlanPrependsSingletons(t *testing.T) {
	p := DefaultPlanParams(3)
	p.RemoveUpTo = 1
	plan, err := GeneratePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range plan {
		if pc.Phase != PhasePrepending {
			continue
		}
		prepended := 0
		for _, a := range pc.Config.Anns {
			if a.Prepend > 0 {
				if a.Prepend != p.PrependDepth {
					t.Fatalf("prepend depth %d, want %d", a.Prepend, p.PrependDepth)
				}
				prepended++
			}
		}
		if prepended != 1 {
			t.Fatalf("prepending config prepends %d links, want 1", prepended)
		}
	}
}

func TestGeneratePlanPoisonConfigs(t *testing.T) {
	p := DefaultPlanParams(3)
	p.RemoveUpTo = 0
	p.PoisonTargets = map[bgp.LinkID][]topo.ASN{1: {200}, 0: {100}}
	plan, err := GeneratePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var poisonCfgs []PlannedConfig
	for _, pc := range plan {
		if pc.Phase == PhasePoisoning {
			poisonCfgs = append(poisonCfgs, pc)
		}
	}
	if len(poisonCfgs) != 2 {
		t.Fatalf("got %d poison configs, want 2", len(poisonCfgs))
	}
	// Deterministic order: link 0 first.
	cfg0 := poisonCfgs[0].Config
	for _, a := range cfg0.Anns {
		if a.Link == 0 {
			if len(a.Poison) != 1 || a.Poison[0] != 100 {
				t.Fatalf("link 0 poison = %v, want [100]", a.Poison)
			}
		} else if len(a.Poison) != 0 {
			t.Fatal("poison leaked to other links")
		}
	}
	// Poison configs announce from all links.
	if len(cfg0.Anns) != 3 {
		t.Fatal("poison config must announce everywhere")
	}
}

func TestCommunityPlan(t *testing.T) {
	providerOf := map[bgp.LinkID]topo.ASN{0: 10, 1: 20}
	targets := map[bgp.LinkID][]topo.ASN{1: {200, 100}, 0: {50}}
	plan := CommunityPlan(3, providerOf, targets)
	if len(plan) != 3 {
		t.Fatalf("got %d configs, want 3", len(plan))
	}
	for _, pc := range plan {
		if pc.Phase != PhaseCommunities {
			t.Fatal("wrong phase")
		}
		if len(pc.Config.Anns) != 3 {
			t.Fatal("community configs must announce from all links")
		}
		tagged := 0
		for _, a := range pc.Config.Anns {
			for _, c := range a.Communities {
				tagged++
				if c.Action != bgp.ActNoExportTo {
					t.Fatal("wrong action")
				}
				if c.Operator != providerOf[a.Link] {
					t.Fatalf("community operator %d not the link provider", c.Operator)
				}
			}
		}
		if tagged != 1 {
			t.Fatalf("%d communities per config, want 1", tagged)
		}
	}
	// Deterministic ordering: link 0 first, then link 1 targets sorted.
	first := plan[0].Config.Anns
	for _, a := range first {
		if a.Link == 0 && (len(a.Communities) != 1 || a.Communities[0].Target != 50) {
			t.Fatal("ordering wrong")
		}
	}
	// Links without a provider entry are skipped.
	planMissing := CommunityPlan(3, map[bgp.LinkID]topo.ASN{}, targets)
	if len(planMissing) != 0 {
		t.Fatal("plan generated without provider mapping")
	}
}

func TestGeneratePlanErrors(t *testing.T) {
	if _, err := GeneratePlan(PlanParams{NumLinks: 0}); err == nil {
		t.Fatal("expected error for zero links")
	}
	if _, err := GeneratePlan(PlanParams{NumLinks: bgp.MaxLinks + 1}); err == nil {
		t.Fatal("expected error for more links than a LinkID holds")
	}
	if _, err := GeneratePlan(PlanParams{NumLinks: 3, RemoveUpTo: 3}); err == nil {
		t.Fatal("expected error for RemoveUpTo >= NumLinks")
	}
	if _, err := GeneratePlan(PlanParams{NumLinks: 3, RemoveUpTo: -1}); err == nil {
		t.Fatal("expected error for negative RemoveUpTo")
	}
}

func TestCombinations(t *testing.T) {
	cs := combinations(4, 2)
	if len(cs) != 6 {
		t.Fatalf("C(4,2) = %d, want 6", len(cs))
	}
	// Lexicographic: first {0,1}, last {2,3}.
	if cs[0][0] != 0 || cs[0][1] != 1 || cs[5][0] != 2 || cs[5][1] != 3 {
		t.Fatalf("combinations = %v", cs)
	}
	if len(combinations(3, 0)) != 1 {
		t.Fatal("C(3,0) should be the empty set only")
	}
	if combinations(3, 4) != nil {
		t.Fatal("C(3,4) should be nil")
	}
}

// toyCatchments builds a small catchment matrix: 8 sources, 4 configs
// that fully separate sources only if all are deployed.
func toyCatchments() [][]bgp.LinkID {
	return [][]bgp.LinkID{
		{0, 0, 0, 0, 1, 1, 1, 1},
		{0, 0, 1, 1, 0, 0, 1, 1},
		{0, 1, 0, 1, 0, 1, 0, 1},
		{0, 0, 0, 0, 0, 0, 0, 0}, // useless config
	}
}

func TestRandomTrajectoryShape(t *testing.T) {
	cs := toyCatchments()
	tr := RandomTrajectory(cs, stats.NewRNG(1))
	if len(tr) != len(cs) {
		t.Fatalf("trajectory length %d, want %d", len(tr), len(cs))
	}
	// Mean size is non-increasing.
	for i := 1; i < len(tr); i++ {
		if tr[i] > tr[i-1] {
			t.Fatal("mean cluster size increased")
		}
	}
	// All informative configs deployed: 8 singletons, mean 1.
	if tr[len(tr)-1] != 1 {
		t.Fatalf("final mean %v, want 1", tr[len(tr)-1])
	}
}

func TestRandomEnsemblePercentilesOrdered(t *testing.T) {
	cs := toyCatchments()
	p25, med, p75 := RandomEnsemble(cs, 50, 7)
	for i := range med {
		if p25[i] > med[i] || med[i] > p75[i] {
			t.Fatalf("percentiles out of order at step %d: %v %v %v", i, p25[i], med[i], p75[i])
		}
	}
}

func TestGreedyBeatsOrMatchesRandomEarly(t *testing.T) {
	cs := toyCatchments()
	greedy, order := GreedyTrajectory(cs, 0)
	_, med, _ := RandomEnsemble(cs, 200, 3)
	// After one config, greedy must be at least as good as the median
	// random choice (greedy picks the most informative config first).
	if greedy[0] > med[0] {
		t.Fatalf("greedy[0]=%v worse than random median %v", greedy[0], med[0])
	}
	// Greedy must not pick the useless config first.
	if order[0] == 3 {
		t.Fatal("greedy picked the uninformative config first")
	}
}

func TestGreedyMaxSteps(t *testing.T) {
	cs := toyCatchments()
	tr, order := GreedyTrajectory(cs, 2)
	if len(tr) != 2 || len(order) != 2 {
		t.Fatalf("got %d steps, want 2", len(tr))
	}
}

func TestGreedyEmpty(t *testing.T) {
	tr, order := GreedyTrajectory(nil, 0)
	if tr != nil || order != nil {
		t.Fatal("empty input should produce empty output")
	}
}

func TestGreedyVolumePrioritizesHeavyCluster(t *testing.T) {
	// Sources 0-3 carry all the traffic. Config 0 splits the heavy
	// sources; config 1 splits the light ones. Volume-aware greedy must
	// deploy config 0 first; size-only greedy has no preference.
	cs := [][]bgp.LinkID{
		{0, 0, 1, 1, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 1, 1},
	}
	volume := []float64{10, 10, 10, 10, 0, 0, 0, 0}
	_, order := GreedyVolumeTrajectory(cs, volume, 0)
	if order[0] != 0 {
		t.Fatalf("volume-aware greedy deployed config %d first, want 0", order[0])
	}
}

func TestGreedyVolumePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GreedyVolumeTrajectory(toyCatchments(), []float64{1}, 0)
}

func TestFullTrajectory(t *testing.T) {
	cs := toyCatchments()
	mean, p90 := FullTrajectory(cs)
	if len(mean) != 4 || len(p90) != 4 {
		t.Fatal("wrong trajectory length")
	}
	if mean[3] != 1 {
		t.Fatalf("final mean %v, want 1", mean[3])
	}
	for i := range mean {
		if p90[i] < mean[i]*0.5 {
			t.Fatalf("p90 %v implausibly below mean %v", p90[i], mean[i])
		}
	}
}

func TestPredictorMatchesNoiselessEngine(t *testing.T) {
	p := topo.DefaultGenParams(50)
	p.NumASes = 500
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Attach origin to two transit ASes.
	var provs []int
	for _, i := range g.TransitASes() {
		if !g.IsTier1(i) {
			provs = append(provs, i)
		}
		if len(provs) == 2 {
			break
		}
	}
	origin := bgp.Origin{ASN: 47065, Links: []bgp.Link{
		{Name: "a", Provider: provs[0]}, {Name: "b", Provider: provs[1]},
	}}
	pred, err := NewPredictor(g, origin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.Config{Anns: []bgp.Announcement{{Link: 0}, {Link: 1}}}
	vec, err := pred.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != g.NumASes() {
		t.Fatal("prediction has wrong length")
	}
	routed := 0
	for _, l := range vec {
		if l != bgp.NoLink {
			routed++
		}
	}
	if routed != g.NumASes() {
		t.Fatalf("predictor routed %d of %d", routed, g.NumASes())
	}
}

func TestRankByPredictedGain(t *testing.T) {
	p := topo.DefaultGenParams(51)
	p.NumASes = 500
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var provs []int
	for _, i := range g.TransitASes() {
		if !g.IsTier1(i) {
			provs = append(provs, i)
		}
		if len(provs) == 3 {
			break
		}
	}
	origin := bgp.Origin{ASN: 47065, Links: []bgp.Link{
		{Name: "a", Provider: provs[0]}, {Name: "b", Provider: provs[1]}, {Name: "c", Provider: provs[2]},
	}}
	pred, err := NewPredictor(g, origin)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]int, g.NumASes())
	for i := range sources {
		sources[i] = i
	}
	part := cluster.New(len(sources))
	cands := []bgp.Config{
		{Anns: []bgp.Announcement{{Link: 0}}},                       // single link: no split
		{Anns: []bgp.Announcement{{Link: 0}, {Link: 1}, {Link: 2}}}, // full anycast: splits
	}
	order, err := pred.RankByPredictedGain(part, sources, cands)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 {
		t.Fatalf("rank order %v, want the anycast config first", order)
	}
}
