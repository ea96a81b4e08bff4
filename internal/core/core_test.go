package core

import (
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/peering"
	"spooftrack/internal/sched"
	"spooftrack/internal/topo"
)

// smallWorld builds a reduced-scale world for fast tests.
func smallWorld(t testing.TB, seed uint64) *World {
	t.Helper()
	p := DefaultWorldParams(seed)
	tp := topo.DefaultGenParams(seed)
	tp.NumASes = 1200
	p.Topo = &tp
	p.NumCollectors = 80
	p.NumProbes = 300
	p.MaxPoisonTargets = 40
	w, err := BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorldDefaults(t *testing.T) {
	w := smallWorld(t, 1)
	if w.Graph.NumASes() != 1200 {
		t.Fatalf("NumASes = %d", w.Graph.NumASes())
	}
	if w.Platform.NumLinks() != 7 {
		t.Fatalf("links = %d, want 7", w.Platform.NumLinks())
	}
	if len(w.Vantages.Collectors) != 80 || len(w.Vantages.Probes) != 300 {
		t.Fatal("vantage sizes wrong")
	}
}

// TestBuildWorld80k: the internet-scale generator tier builds a whole
// world. Its graphs run past AS47065, the platform's origin ASN, which
// the generator skips so the routing engine accepts the origin.
func TestBuildWorld80k(t *testing.T) {
	if testing.Short() {
		t.Skip("80k world skipped in -short")
	}
	p := DefaultWorldParams(11)
	tp := topo.InternetGenParams(11, 80000)
	p.Topo = &tp
	w, err := BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := w.Graph.NumASes(); n != 80000 {
		t.Fatalf("NumASes = %d, want 80000", n)
	}
	if _, ok := w.Graph.Index(peering.PEERINGASN); ok {
		t.Fatalf("AS%d, the origin, is a topology AS", peering.PEERINGASN)
	}
}

func TestDefaultPlanShape(t *testing.T) {
	w := smallWorld(t, 2)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	counts := sched.PhaseCounts(plan)
	if counts[sched.PhaseLocations] != 64 {
		t.Errorf("locations = %d, want 64", counts[sched.PhaseLocations])
	}
	if counts[sched.PhasePrepending] != 294 {
		t.Errorf("prepending = %d, want 294", counts[sched.PhasePrepending])
	}
	if counts[sched.PhasePoisoning] != 40 {
		t.Errorf("poisoning = %d, want capped 40", counts[sched.PhasePoisoning])
	}
	// Poison targets must be neighbors of the poisoned link's provider.
	for _, pc := range plan {
		if pc.Phase != sched.PhasePoisoning {
			continue
		}
		for _, a := range pc.Config.Anns {
			if len(a.Poison) == 0 {
				continue
			}
			prov := w.Platform.Muxes()[a.Link].Provider
			for _, target := range a.Poison {
				idx, ok := w.Graph.Index(target)
				if !ok {
					t.Fatalf("poison target AS%d not in graph", target)
				}
				if _, adjacent := w.Graph.Rel(prov, idx); !adjacent {
					t.Fatalf("poison target AS%d is not a neighbor of link %d's provider", target, a.Link)
				}
			}
		}
	}
}

func TestRunCampaignTruth(t *testing.T) {
	w := smallWorld(t, 3)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	plan = plan[:24] // keep the test fast
	camp, err := w.RunCampaign(plan, CampaignOptions{UseTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	if camp.NumConfigs() != 24 || len(camp.Catchments) != 24 {
		t.Fatal("campaign sizes wrong")
	}
	if camp.NumSources() != w.Graph.NumASes() {
		t.Fatalf("truth campaign should cover all ASes, got %d", camp.NumSources())
	}
	// Refinement trajectory is monotone in cluster count.
	prev := 0
	p := camp.PartitionAfter(0)
	if p.NumClusters() != 1 {
		t.Fatal("empty refinement should be one cluster")
	}
	for n := 1; n <= 24; n++ {
		k := camp.PartitionAfter(n).NumClusters()
		if k < prev {
			t.Fatal("cluster count decreased")
		}
		prev = k
	}
	if got := camp.FinalPartition().NumClusters(); got != prev {
		t.Fatal("FinalPartition inconsistent with PartitionAfter")
	}
}

func TestRunCampaignMeasured(t *testing.T) {
	w := smallWorld(t, 4)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	plan = plan[:12]
	var progress int
	camp, err := w.RunCampaign(plan, CampaignOptions{
		Progress: func(done, total int) { progress = done },
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress != 12 {
		t.Fatalf("progress callback reached %d, want 12", progress)
	}
	if camp.Imputed == nil || len(camp.Measurements) != 12 {
		t.Fatal("measured campaign missing measurement state")
	}
	if camp.NumSources() == 0 {
		t.Fatal("no sources observed")
	}
	// Sources should be a meaningful fraction of the topology but not
	// everything (vantage coverage is partial).
	frac := float64(camp.NumSources()) / float64(w.Graph.NumASes())
	if frac < 0.2 || frac > 0.99 {
		t.Fatalf("source coverage %.2f implausible", frac)
	}
	// Measured catchments should mostly agree with the truth.
	wrong, total := 0, 0
	for cc, out := range camp.Outcomes {
		for k, src := range camp.Sources {
			got := camp.Catchments[cc][k]
			if got == bgp.NoLink {
				continue
			}
			total++
			if got != out.CatchmentOf(src) {
				wrong++
			}
		}
	}
	if total == 0 {
		t.Fatal("no catchments measured")
	}
	if frac := float64(wrong) / float64(total); frac > 0.10 {
		t.Fatalf("measured catchments wrong for %.1f%%", frac*100)
	}
}

func TestRunCampaignWireFeeds(t *testing.T) {
	// The MRT wire round-trip must not change measured catchments.
	p := DefaultWorldParams(4)
	tp := topo.DefaultGenParams(4)
	tp.NumASes = 1200
	p.Topo = &tp
	p.NumCollectors = 80
	p.NumProbes = 300
	p.MaxPoisonTargets = 40
	w1, err := BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	p.WireFeeds = true
	w2, err := BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w1.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	plan = plan[:8]
	c1, err := w1.RunCampaign(plan, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := w2.RunCampaign(plan, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c1.NumSources() != c2.NumSources() {
		t.Fatalf("wire feeds changed source count: %d vs %d", c1.NumSources(), c2.NumSources())
	}
	for cc := range c1.Catchments {
		for k := range c1.Catchments[cc] {
			if c1.Catchments[cc][k] != c2.Catchments[cc][k] {
				t.Fatalf("wire feeds changed catchment [%d][%d]", cc, k)
			}
		}
	}
}

func TestRunCampaignEmptyPlan(t *testing.T) {
	w := smallWorld(t, 5)
	if _, err := w.RunCampaign(nil, CampaignOptions{}); err == nil {
		t.Fatal("expected error for empty plan")
	}
}

func TestMetricsTrajectoryMatchesPartitions(t *testing.T) {
	w := smallWorld(t, 6)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	plan = plan[:10]
	camp, err := w.RunCampaign(plan, CampaignOptions{UseTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	traj := camp.MetricsTrajectory()
	if len(traj) != 10 {
		t.Fatal("trajectory length wrong")
	}
	for n := 1; n <= 10; n++ {
		want := camp.PartitionAfter(n).Summarize()
		if traj[n-1] != want {
			t.Fatalf("trajectory[%d] = %+v, want %+v", n-1, traj[n-1], want)
		}
	}
}

func TestPhasePartitions(t *testing.T) {
	w := smallWorld(t, 7)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := w.RunCampaign(plan[:70], CampaignOptions{UseTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := camp.PhasePartitions()
	locEnd := sched.PhaseEnd(camp.Plan, sched.PhaseLocations)
	if got := parts[sched.PhaseLocations].NumClusters(); got != camp.PartitionAfter(locEnd).NumClusters() {
		t.Fatal("phase partition inconsistent")
	}
	// Later phases refine further (or equal).
	if parts[sched.PhasePrepending].NumClusters() < parts[sched.PhaseLocations].NumClusters() {
		t.Fatal("prepending phase lost clusters")
	}
}

func TestSubCampaignFootprint(t *testing.T) {
	w := smallWorld(t, 8)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := w.RunCampaign(plan[:sched.PhaseEnd(plan, sched.PhasePrepending)], CampaignOptions{UseTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	// Six-location emulation: drop link 6.
	links := []bgp.LinkID{0, 1, 2, 3, 4, 5}
	keep := camp.ConfigsUsingOnlyLinks(links)
	if len(keep) != 118 {
		t.Fatalf("six-location sub-plan has %d configs, want 118", len(keep))
	}
	sub := camp.SubCampaign(keep)
	if sub.NumConfigs() != 118 {
		t.Fatal("SubCampaign size wrong")
	}
	// Fewer configurations cannot produce more clusters.
	if sub.FinalPartition().NumClusters() > camp.FinalPartition().NumClusters() {
		t.Fatal("sub-campaign produced more clusters than the full campaign")
	}
	// Five locations: 31 configs.
	keep5 := camp.ConfigsUsingOnlyLinks([]bgp.LinkID{0, 1, 2, 3, 4})
	if len(keep5) != 31 {
		t.Fatalf("five-location sub-plan has %d configs, want 31", len(keep5))
	}
}
