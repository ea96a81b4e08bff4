package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestExtPrediction(t *testing.T) {
	r, err := ExtPrediction(campaign(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AgreementPerConfig) != campaign(t).NumConfigs() {
		t.Fatal("missing per-config agreement")
	}
	// The predictor shares the engine's decision structure minus the
	// noise knobs, so agreement should be substantial but not perfect.
	if r.Mean < 0.5 || r.Mean >= 1.0 {
		t.Fatalf("mean agreement %.3f implausible", r.Mean)
	}
	if !strings.Contains(r.String(), "prediction") {
		t.Fatal("String() missing header")
	}
}

func TestExtTargetedPoison(t *testing.T) {
	camp := campaign(t)
	r, err := ExtTargetedPoison(camp, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExtraConfigs == 0 {
		t.Skip("no clusters above threshold in this campaign")
	}
	// Refinement can only shrink or keep cluster sizes.
	if r.AfterMean > r.BeforeMean+1e-9 {
		t.Fatalf("targeted poisoning grew mean size %.2f -> %.2f", r.BeforeMean, r.AfterMean)
	}
	if r.AfterMax > r.BeforeMax {
		t.Fatalf("targeted poisoning grew max cluster %d -> %d", r.BeforeMax, r.AfterMax)
	}
	if !strings.Contains(r.String(), "targeted") {
		t.Fatal("String() missing header")
	}
}

func TestExtCommunities(t *testing.T) {
	camp := campaign(t)
	r, err := ExtCommunities(camp)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumConfigs == 0 {
		t.Fatal("no poison configs to compare against")
	}
	// Both techniques refine from the base; neither can grow clusters.
	if r.PoisonMean > r.BaseMean+1e-9 || r.CommunityMean > r.BaseMean+1e-9 {
		t.Fatalf("technique grew clusters: base %.2f poison %.2f community %.2f",
			r.BaseMean, r.PoisonMean, r.CommunityMean)
	}
	if r.CommunityMean <= 0 {
		t.Fatal("community branch did not run")
	}
	if !strings.Contains(r.String(), "communities") {
		t.Fatal("String() missing header")
	}
}

func TestExtRemediation(t *testing.T) {
	camp := campaign(t)
	r, err := ExtRemediation(camp, 0.5, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) == 0 {
		t.Fatal("no remediation rounds")
	}
	last := r.Steps[len(r.Steps)-1]
	// Localization-driven notification must eliminate the attack: the
	// candidate set always covers the active sources.
	if last.ResidualVolume != 0 {
		t.Fatalf("residual volume %.2f after %d rounds", last.ResidualVolume, last.Round)
	}
	if r.TotalNotified == 0 || r.TotalNotified > camp.NumSources() {
		t.Fatalf("notified %d networks", r.TotalNotified)
	}
	if !strings.Contains(r.String(), "notification campaign") {
		t.Fatal("String() missing header")
	}
}

func TestExtStaleness(t *testing.T) {
	camp := campaign(t)
	r, err := ExtStaleness(camp, 40, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Route drift is real but partial.
	if r.CatchmentChangedFrac <= 0 || r.CatchmentChangedFrac >= 0.5 {
		t.Fatalf("changed fraction %.3f implausible for 5%% drift", r.CatchmentChangedFrac)
	}
	// Fresh catchments never lose the attacker; that is Localize's
	// soundness guarantee when the map matches reality.
	if r.Fresh.HitRate != 1.0 {
		t.Fatalf("fresh hit rate %.2f, want 1.0", r.Fresh.HitRate)
	}
	// Hit rate and candidate count grow with tolerance.
	for i := 1; i < len(r.Stale); i++ {
		if r.Stale[i].HitRate < r.Stale[i-1].HitRate-1e-9 {
			t.Fatal("hit rate not monotone in tolerance")
		}
		if r.Stale[i].MeanCandidates < r.Stale[i-1].MeanCandidates-1e-9 {
			t.Fatal("candidate count not monotone in tolerance")
		}
	}
	// A generous tolerance must recover most attackers under mild drift.
	last := r.Stale[len(r.Stale)-1]
	if last.HitRate < 0.8 {
		t.Fatalf("tolerant stale hit rate %.2f too low", last.HitRate)
	}
	if !strings.Contains(r.String(), "stale") {
		t.Fatal("String() missing header")
	}
}

func TestExtSpeed(t *testing.T) {
	camp := campaign(t)
	r := ExtSpeed(camp, 5.0, 3)
	if r.ConfigsGreedy == 0 {
		t.Fatal("greedy never reached target mean 5.0")
	}
	// Greedy needs no more configurations than this random draw.
	if r.ConfigsRandom > 0 && r.ConfigsGreedy > r.ConfigsRandom {
		t.Fatalf("greedy %d configs, random %d", r.ConfigsGreedy, r.ConfigsRandom)
	}
	// Concurrency divides wall-clock time (up to slot rounding).
	if r.Times[4] > r.Times[2] || r.Times[2] > r.Times[1] {
		t.Fatalf("concurrency times not monotone: %v", r.Times)
	}
	if r.Times[1] != time.Duration(r.ConfigsGreedy)*70*time.Minute {
		t.Fatalf("single-prefix time %v inconsistent", r.Times[1])
	}
	if !strings.Contains(r.String(), "speed") {
		t.Fatal("String() missing header")
	}
}
