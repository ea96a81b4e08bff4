package policy

import (
	"math"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/peering"
	"spooftrack/internal/topo"
)

func TestSurveyAcrossConfigs(t *testing.T) {
	p := topo.DefaultGenParams(70)
	p.NumASes = 800
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := peering.New(g, peering.Options{EngineParams: bgp.DefaultParams(70)})
	if err != nil {
		t.Fatal(err)
	}
	s := &Survey{}
	for _, cfg := range []bgp.Config{
		{Anns: []bgp.Announcement{{Link: 0}, {Link: 1}, {Link: 2}}},
		{Anns: []bgp.Announcement{{Link: 0, Prepend: 4}, {Link: 1}}},
		{Anns: []bgp.Announcement{{Link: 3}, {Link: 4}}},
	} {
		out, err := plat.Deploy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Add(plat.Engine(), out)
	}
	if len(s.BestRel) != 3 || len(s.GaoRexford) != 3 {
		t.Fatalf("audited %d/%d configurations, want 3", len(s.BestRel), len(s.GaoRexford))
	}
	meanBR, meanGR := s.Summary()
	if meanBR <= 0.5 || meanBR > 1 {
		t.Fatalf("mean best-relationship compliance %v implausible", meanBR)
	}
	if meanGR > meanBR {
		t.Fatal("Gao-Rexford compliance cannot exceed best-relationship")
	}
	// With the default modest policy noise most ASes comply.
	if meanBR < 0.8 {
		t.Fatalf("compliance %v lower than expected for default noise", meanBR)
	}
}

func TestCDFWellFormed(t *testing.T) {
	s := &Survey{BestRel: []float64{0.8, 0.9, 0.9, 1.0}}
	pts := s.BestRelCDF()
	if len(pts) != 3 {
		t.Fatalf("CDF %v, want 3 distinct values", pts)
	}
	// Final point must reach 1.
	if pts[len(pts)-1].CumFrac != 1 {
		t.Fatalf("CDF does not reach 1: %v", pts)
	}
	// Non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].CumFrac < pts[i-1].CumFrac || pts[i].Compliance <= pts[i-1].Compliance {
			t.Fatalf("CDF not monotone: %v", pts)
		}
	}
	// CDF at 0.8 = 1/4.
	if math.Abs(pts[0].CumFrac-0.25) > 1e-12 {
		t.Fatalf("CDF(0.8) = %v, want 0.25", pts[0].CumFrac)
	}
}

func TestCDFEmpty(t *testing.T) {
	s := &Survey{}
	if pts := s.GaoRexfordCDF(); pts != nil {
		t.Fatal("empty survey should produce nil CDF")
	}
}
