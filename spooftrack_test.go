package spooftrack

import (
	"testing"

	"spooftrack/internal/core"
	"spooftrack/internal/topo"
)

// testTracker builds a reduced-scale tracker shared across the public
// API tests.
func testTracker(t testing.TB, seed uint64, useTruth bool) *Tracker {
	t.Helper()
	p := DefaultTrackerParams(seed)
	tp := topo.DefaultGenParams(seed)
	tp.NumASes = 1000
	p.World.Topo = &tp
	p.World.NumProbes = 300
	p.World.NumCollectors = 80
	p.World.MaxPoisonTargets = 20
	p.UseTruth = useTruth
	tr, err := NewTracker(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTrackerUnderFaultProfile: with a fault profile set, NewTracker
// installs the injector and retries on core.DefaultRetryPolicy's
// schedule, so chaos's transient deployment faults are retried and what
// stays lost degrades instead of failing the campaign.
func TestTrackerUnderFaultProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("real retry backoff; skipped in -short")
	}
	t.Parallel()
	p := DefaultTrackerParams(42)
	tp := topo.DefaultGenParams(42)
	tp.NumASes = 300
	p.World.Topo = &tp
	p.World.MaxPoisonTargets = 10
	p.UseTruth = true
	p.FaultProfile = "chaos"
	p.FaultSeed = 42
	p.Ledger = NewProvenanceLedger()
	tr, err := NewTracker(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fault == nil {
		t.Fatal("no injector installed")
	}
	retries, degrades := 0, 0
	for _, ev := range p.Ledger.Export().Events {
		switch {
		case ev.Retry != nil:
			retries++
			if last := core.DefaultRetryPolicy().MaxAttempts - 1; ev.Retry.Attempt >= last {
				t.Errorf("retry recorded after attempt %d; the schedule's last is %d", ev.Retry.Attempt, last)
			}
		case ev.Degrade != nil:
			degrades++
		}
	}
	if retries == 0 {
		t.Error("chaos deployed without a single retry")
	}
	if degrades != len(tr.Campaign.Incomplete) {
		t.Errorf("%d degrade events, %d incomplete configurations", degrades, len(tr.Campaign.Incomplete))
	}
	t.Logf("%d retries, %d degraded", retries, degrades)
}

func TestTrackerEndToEnd(t *testing.T) {
	tr := testTracker(t, 1, false)
	if tr.Campaign.NumConfigs() != 64+294+20 {
		t.Fatalf("campaign has %d configs", tr.Campaign.NumConfigs())
	}
	m := tr.Summary()
	if m.NumClusters == 0 || m.MeanSize < 1 {
		t.Fatalf("bad summary %+v", m)
	}
	asns := tr.SourceASNs()
	if len(asns) != tr.Campaign.NumSources() {
		t.Fatal("SourceASNs length mismatch")
	}
}

func TestTrackerLocalizeSingleAttacker(t *testing.T) {
	tr := testTracker(t, 2, true)
	rng := NewRNG(99)
	placement := tr.PlaceSingleSource(rng)
	volumes := tr.SimulateAttack(placement)
	rep, err := tr.LocalizeAttack(volumes)
	if err != nil {
		t.Fatal(err)
	}
	// The true source must be among the candidates...
	trueIdx := -1
	for k, w := range placement.Weight {
		if w > 0 {
			trueIdx = k
		}
	}
	found := false
	for _, k := range rep.CandidateIndexes {
		if k == trueIdx {
			found = true
		}
	}
	if !found {
		t.Fatal("true attacker eliminated during localization")
	}
	// ...and the candidate set must be small — that is the whole point
	// of the paper. The final cluster of the attacker bounds it.
	clusterSize := tr.Clusters().SizeOfSource(trueIdx)
	if len(rep.CandidateIndexes) > clusterSize {
		t.Fatalf("candidate set %d exceeds attacker cluster size %d",
			len(rep.CandidateIndexes), clusterSize)
	}
}

func TestTrackerEvidence(t *testing.T) {
	tr := testTracker(t, 4, true)
	rng := NewRNG(8)
	placement := tr.PlaceSingleSource(rng)
	volumes := tr.SimulateAttack(placement)
	rep, err := tr.Evidence(volumes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) == 0 {
		t.Fatal("no candidates in evidence report")
	}
	// The true attacker must be the top-ranked candidate (it carried
	// 100% of the volume in every configuration it was observed in).
	trueIdx := -1
	for k, w := range placement.Weight {
		if w > 0 {
			trueIdx = k
		}
	}
	wantASN := tr.World.Graph.ASN(tr.Campaign.Sources[trueIdx])
	top := rep.Candidates[0]
	if top.MeanVolumeShare < 0.99 {
		t.Fatalf("top candidate volume share %.2f", top.MeanVolumeShare)
	}
	found := top.ASN == wantASN
	for _, a := range top.ClusterASNs {
		if a == wantASN {
			found = true
		}
	}
	if !found {
		t.Fatalf("true attacker AS%d not in top candidate's cluster (AS%d)", wantASN, top.ASN)
	}
	if rep.String() == "" {
		t.Fatal("empty render")
	}
}

func TestTrackerLocalizeValidatesInput(t *testing.T) {
	tr := testTracker(t, 2, true) // same seed as above: may hit build cache semantics but fine
	if _, err := tr.LocalizeAttack(nil); err == nil {
		t.Fatal("expected error for mismatched volume rows")
	}
}

func TestPlacementHelpers(t *testing.T) {
	tr := testTracker(t, 3, true)
	rng := NewRNG(5)
	u := tr.PlaceUniformSources(rng, 50)
	if u.TotalVolume() != 50 {
		t.Fatal("uniform placement volume wrong")
	}
	p := tr.PlaceParetoSources(rng, 50)
	if p.TotalVolume() != 50 {
		t.Fatal("pareto placement volume wrong")
	}
}

func TestPublicConstructors(t *testing.T) {
	g, err := GenerateTopology(func() GenParams {
		p := DefaultGenParams(9)
		p.NumASes = 200
		return p
	}())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumASes() != 200 {
		t.Fatal("topology size wrong")
	}
	if len(TableI) != 7 {
		t.Fatal("TableI must list 7 muxes")
	}
	if PEERINGASN != 47065 {
		t.Fatal("PEERING ASN wrong")
	}
}
