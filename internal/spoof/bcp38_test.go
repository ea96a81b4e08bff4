package spoof

import (
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

func TestBCP38ModelBasics(t *testing.T) {
	m, err := NewBCP38Model(1000, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	frac := m.DeployedFrac()
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("deployed fraction %.3f, want ~0.5", frac)
	}
	// Deploy is idempotent and monotone.
	for k := 0; k < 1000; k++ {
		m.Deploy(k)
	}
	if m.DeployedFrac() != 1 {
		t.Fatal("full deployment not reached")
	}
}

func TestBCP38ModelValidation(t *testing.T) {
	if _, err := NewBCP38Model(10, -0.1, 1); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if _, err := NewBCP38Model(10, 1.1, 1); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestBCP38Filter(t *testing.T) {
	m, err := NewBCP38Model(4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Deploy(1)
	m.Deploy(3)
	p := Placement{Weight: []float64{1, 2, 3, 4}}
	got := m.Filter(p)
	if got.Weight[0] != 1 || got.Weight[1] != 0 || got.Weight[2] != 3 || got.Weight[3] != 0 {
		t.Fatalf("filtered %v", got.Weight)
	}
	// Original untouched.
	if p.Weight[1] != 2 {
		t.Fatal("input placement mutated")
	}
}

func TestBCP38FromVector(t *testing.T) {
	v := []bool{true, false, true}
	m := NewBCP38FromVector(v)
	if len(m.deployed) != 3 || !m.Deployed(0) || m.Deployed(1) || !m.Deployed(2) {
		t.Fatalf("vector model wrong: %+v", m)
	}
	v[1] = true // the model must have copied
	if m.Deployed(1) {
		t.Fatal("NewBCP38FromVector aliased its input")
	}
	p := m.Filter(Placement{Weight: []float64{1, 1, 1}})
	if p.TotalVolume() != 1 {
		t.Fatalf("filtered volume %v, want 1 (only source 1 can spoof)", p.TotalVolume())
	}
}

func TestRemediateDrivesVolumeToZero(t *testing.T) {
	// 8 sources fully separable by 3 configurations.
	catchments := [][]bgp.LinkID{
		{0, 0, 0, 0, 1, 1, 1, 1},
		{0, 0, 1, 1, 0, 0, 1, 1},
		{0, 1, 0, 1, 0, 1, 0, 1},
	}
	rng := stats.NewRNG(5)
	p := PlacePareto(rng, 8, 50)
	model, err := NewBCP38Model(8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	steps := Remediate(catchments, p, model, 2, 10, 0)
	if len(steps) == 0 {
		t.Fatal("no remediation steps")
	}
	last := steps[len(steps)-1]
	if last.ResidualVolume != 0 {
		t.Fatalf("residual volume %v after %d rounds", last.ResidualVolume, last.Round)
	}
	// Residual fraction is non-increasing.
	prev := 1.0
	for _, s := range steps {
		if s.ResidualFrac > prev+1e-12 {
			t.Fatalf("residual increased at round %d", s.Round)
		}
		prev = s.ResidualFrac
	}
	// Fully separable sources: everything localized in one round.
	if steps[0].ResidualFrac != 0 {
		t.Logf("note: first round left %.2f (catchment overlap)", steps[0].ResidualFrac)
	}
}

func TestRemediatePartialSeparability(t *testing.T) {
	// One configuration only: clusters of 4; notification hits whole
	// clusters at once (the candidate set), volume still reaches zero
	// because candidates cover all active sources.
	catchments := [][]bgp.LinkID{{0, 0, 0, 0, 1, 1, 1, 1}}
	p := Placement{Weight: []float64{1, 0, 0, 0, 0, 0, 0, 1}}
	model, err := NewBCP38Model(8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	steps := Remediate(catchments, p, model, 2, 5, 0)
	if len(steps) == 0 || steps[len(steps)-1].ResidualVolume != 0 {
		t.Fatalf("remediation failed: %+v", steps)
	}
	// The blunt one-config localization notifies every source in both
	// catchments (collateral notification).
	if steps[0].NotifiedASCount != 8 {
		t.Fatalf("notified %d, want all 8 (no separation available)", steps[0].NotifiedASCount)
	}
}

func TestRemediateAlreadyFiltered(t *testing.T) {
	catchments := [][]bgp.LinkID{{0, 1}}
	p := Placement{Weight: []float64{1, 1}}
	model, err := NewBCP38Model(2, 1.0, 4) // everyone filters already
	if err != nil {
		t.Fatal(err)
	}
	if steps := Remediate(catchments, p, model, 2, 5, 0); len(steps) != 0 {
		t.Fatalf("steps %v for fully filtered world", steps)
	}
}
