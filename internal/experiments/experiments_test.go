package experiments

import (
	"strings"
	"sync"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/peering"
	"spooftrack/internal/sched"
	"spooftrack/internal/spoof"
	"spooftrack/internal/topo"
)

var (
	testLabOnce sync.Once
	testLab     *Lab
	testLabErr  error
)

// lab returns a shared reduced-scale measured lab for the experiment
// tests (building it once keeps the suite fast).
func lab(t *testing.T) *Lab {
	t.Helper()
	testLabOnce.Do(func() {
		testLab, testLabErr = NewLab(LabParams{
			Seed:             7,
			NumASes:          1500,
			NumProbes:        500,
			NumCollectors:    120,
			MaxPoisonTargets: 60,
		})
	})
	if testLabErr != nil {
		t.Fatal(testLabErr)
	}
	return testLab
}

func TestLabShape(t *testing.T) {
	l := lab(t)
	counts := sched.PhaseCounts(l.Plan)
	if counts[sched.PhaseLocations] != 64 || counts[sched.PhasePrepending] != 294 || counts[sched.PhasePoisoning] != 60 {
		t.Fatalf("plan counts %v", counts)
	}
	if l.Campaign.NumSources() == 0 {
		t.Fatal("no sources")
	}
}

func TestFig3Shapes(t *testing.T) {
	l := lab(t)
	r := Fig3(l)
	// Each successive phase must not increase the mean cluster size
	// (refinement only splits). Note the singleton *fraction* can dip
	// when a split turns one big cluster into several medium ones.
	parts := l.Campaign.PhasePartitions()
	if parts[sched.PhasePrepending].Summarize().MeanSize > parts[sched.PhaseLocations].Summarize().MeanSize+1e-9 {
		t.Fatal("prepending phase grew mean cluster size")
	}
	if parts[sched.PhasePoisoning].Summarize().MeanSize > parts[sched.PhasePrepending].Summarize().MeanSize+1e-9 {
		t.Fatal("poisoning phase grew mean cluster size")
	}
	// Most clusters end up small.
	if r.SingletonFrac[sched.PhasePoisoning] < 0.5 {
		t.Fatalf("final singleton fraction %.2f; techniques ineffective", r.SingletonFrac[sched.PhasePoisoning])
	}
	// CCDFs start at 1.0.
	for ph, pts := range r.CCDF {
		if len(pts) == 0 || pts[0].Frac != 1.0 {
			t.Fatalf("phase %v CCDF malformed", ph)
		}
	}
	if !strings.Contains(r.String(), "Figure 3") {
		t.Fatal("String() missing header")
	}
}

func TestFig4Shapes(t *testing.T) {
	l := lab(t)
	r := Fig4(l)
	if len(r.Mean) != l.Campaign.NumConfigs() {
		t.Fatal("trajectory length mismatch")
	}
	// Mean cluster size never increases.
	for i := 1; i < len(r.Mean); i++ {
		if r.Mean[i] > r.Mean[i-1]+1e-9 {
			t.Fatalf("mean increased at step %d", i)
		}
	}
	// Diminishing returns: the first quarter of configs does more work
	// than the last quarter.
	q := len(r.Mean) / 4
	firstGain := r.Mean[0] - r.Mean[q]
	lastGain := r.Mean[len(r.Mean)-1-q] - r.Mean[len(r.Mean)-1]
	if firstGain < lastGain {
		t.Fatalf("no diminishing returns: first-quarter gain %.2f < last %.2f", firstGain, lastGain)
	}
	if !strings.Contains(r.String(), "Figure 4") {
		t.Fatal("String() missing header")
	}
}

func TestFig5Shapes(t *testing.T) {
	r := Fig5(lab(t))
	if len(r.Scenarios) != 3 {
		t.Fatalf("got %d scenarios, want 3", len(r.Scenarios))
	}
	if r.Scenarios[0].NumConfigs != 358 || r.Scenarios[1].NumConfigs != 118 || r.Scenarios[2].NumConfigs != 31 {
		t.Fatalf("config counts %d/%d/%d, want 358/118/31",
			r.Scenarios[0].NumConfigs, r.Scenarios[1].NumConfigs, r.Scenarios[2].NumConfigs)
	}
	// More locations end with smaller mean clusters.
	final := func(s FootprintScenario) float64 { return s.MeanTrajectory[len(s.MeanTrajectory)-1] }
	if final(r.Scenarios[0]) > final(r.Scenarios[1]) || final(r.Scenarios[1]) > final(r.Scenarios[2]) {
		t.Fatalf("footprint ordering violated: %.2f, %.2f, %.2f",
			final(r.Scenarios[0]), final(r.Scenarios[1]), final(r.Scenarios[2]))
	}
	// Min <= mean <= max everywhere.
	for _, s := range r.Scenarios {
		for i := range s.MeanTrajectory {
			if s.MinTrajectory[i] > s.MeanTrajectory[i]+1e-9 || s.MeanTrajectory[i] > s.MaxTrajectory[i]+1e-9 {
				t.Fatal("trajectory band inconsistent")
			}
		}
	}
	// Fewer locations leave a heavier tail.
	if r.Scenarios[2].FracOver25 < r.Scenarios[0].FracOver25 {
		t.Fatalf("5-location tail %.4f lighter than 7-location %.4f",
			r.Scenarios[2].FracOver25, r.Scenarios[0].FracOver25)
	}
	if !strings.Contains(r.String(), "Figure 5") || !strings.Contains(r.Fig6String(), "Figure 6") {
		t.Fatal("render headers missing")
	}
}

func TestFig7Shapes(t *testing.T) {
	r := Fig7(lab(t))
	if r.MeanNear <= 0 || r.MeanFar <= 0 {
		t.Fatal("distance groups empty")
	}
	// The paper's qualitative claim: nearby ASes are in smaller (or
	// equal) clusters on average.
	if r.MeanNear > r.MeanFar {
		t.Fatalf("near mean %.2f > far mean %.2f: distance trend violated", r.MeanNear, r.MeanFar)
	}
	// Each group's CDF ends at 1.
	for grp, pts := range r.Groups {
		if len(pts) == 0 || pts[len(pts)-1].CumFrac < 0.999 {
			t.Fatalf("group %d CDF incomplete", grp)
		}
	}
	if !strings.Contains(r.String(), "Figure 7") {
		t.Fatal("String() missing header")
	}
}

func TestFig8Shapes(t *testing.T) {
	p := DefaultFig8Params()
	p.NumRandomSequences = 40
	p.GreedySteps = 24
	r := Fig8(lab(t), p)
	if len(r.Greedy) != 24 {
		t.Fatalf("greedy trajectory %d steps, want 24", len(r.Greedy))
	}
	// Greedy at 10 must beat the random median at 10.
	if r.GreedyAt10 >= r.RandomAt10 {
		t.Fatalf("greedy %.2f not better than random %.2f after 10 configs", r.GreedyAt10, r.RandomAt10)
	}
	if !strings.Contains(r.String(), "Figure 8") {
		t.Fatal("String() missing header")
	}
}

func TestFig9Shapes(t *testing.T) {
	l := lab(t)
	r := Fig9(l)
	if len(r.BestRel) != l.Campaign.NumConfigs() || len(r.GaoRexford) != l.Campaign.NumConfigs() {
		t.Fatal("survey length mismatch")
	}
	if r.MeanGaoRexford > r.MeanBestRel {
		t.Fatal("Gao-Rexford compliance exceeds best-relationship")
	}
	// Most ASes follow known policies (paper's conclusion); the default
	// modest policy noise keeps compliance high.
	if r.MeanBestRel < 0.8 || r.MeanBestRel > 1 {
		t.Fatalf("best-relationship compliance %.2f implausible", r.MeanBestRel)
	}
	if !strings.Contains(r.String(), "Figure 9") {
		t.Fatal("String() missing header")
	}
	// The plotted CDFs are non-decreasing steps that end at 1.
	for _, xs := range [][]float64{r.BestRel, r.GaoRexford} {
		pts := complianceCDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].CumFrac < pts[i-1].CumFrac || pts[i].Compliance <= pts[i-1].Compliance {
				t.Fatalf("CDF not monotone: %v", pts)
			}
		}
		if len(pts) == 0 || pts[len(pts)-1].CumFrac != 1 {
			t.Fatalf("CDF does not reach 1: %v", pts)
		}
	}
}

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
	var outs []*bgp.Outcome
	for _, cfg := range []bgp.Config{
		{Anns: []bgp.Announcement{{Link: 0}, {Link: 1}, {Link: 2}}},
		{Anns: []bgp.Announcement{{Link: 0, Prepend: 4}, {Link: 1}}},
		{Anns: []bgp.Announcement{{Link: 3}, {Link: 4}}},
	} {
		out, err := plat.Deploy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	r := complianceSurvey(plat.Engine(), outs)
	if len(r.BestRel) != 3 || len(r.GaoRexford) != 3 {
		t.Fatalf("audited %d/%d configurations, want 3", len(r.BestRel), len(r.GaoRexford))
	}
	if r.MeanBestRel <= 0.5 || r.MeanBestRel > 1 {
		t.Fatalf("mean best-relationship compliance %v implausible", r.MeanBestRel)
	}
	if r.MeanGaoRexford > r.MeanBestRel {
		t.Fatal("Gao-Rexford compliance cannot exceed best-relationship")
	}
	// With the default modest policy noise most ASes comply.
	if r.MeanBestRel < 0.8 {
		t.Fatalf("compliance %v lower than expected for default noise", r.MeanBestRel)
	}
}

func TestCDFWellFormed(t *testing.T) {
	// One value per distinct sample, each step at its cumulative share.
	pts := complianceCDF([]float64{0.8, 0.9, 0.9, 1.0})
	if len(pts) != 3 || pts[0].CumFrac != 0.25 || pts[1].CumFrac != 0.75 || pts[2].CumFrac != 1 {
		t.Fatalf("CDF of {0.8, 0.9, 0.9, 1} = %v", pts)
	}
}

func TestCDFEmpty(t *testing.T) {
	if complianceCDF(nil) != nil {
		t.Fatal("empty survey should produce nil CDF")
	}
}

func TestFig10Shapes(t *testing.T) {
	p := DefaultFig10Params()
	p.NumPlacements = 100
	r := Fig10(lab(t), p)
	for name, c := range map[string][]spoof.TrafficBySizePoint{
		"uniform": r.Uniform, "pareto": r.Pareto, "single": r.Single,
	} {
		if len(c) != p.MaxSize {
			t.Fatalf("%s: curve length %d, want %d", name, len(c), p.MaxSize)
		}
		for i := 1; i < len(c); i++ {
			if c[i].CumFrac < c[i-1].CumFrac-1e-9 {
				t.Fatalf("%s: curve not monotone", name)
			}
		}
		// Most traffic is in small clusters: by size 8, over half.
		if c[7].CumFrac < 0.5 {
			t.Fatalf("%s: only %.2f of traffic in clusters <=8", name, c[7].CumFrac)
		}
	}
	if !strings.Contains(r.String(), "Figure 10") {
		t.Fatal("String() missing header")
	}
}

func TestHeadline(t *testing.T) {
	r := Headline(lab(t))
	if r.NumConfigs != 418 {
		t.Fatalf("NumConfigs = %d, want 64+294+60", r.NumConfigs)
	}
	if r.MeanSize < 1 || r.MeanSize > 10 {
		t.Fatalf("mean size %.2f implausible", r.MeanSize)
	}
	if r.MultiCatchmentFrac <= 0 || r.MultiCatchmentFrac > 0.2 {
		t.Fatalf("multi-catchment fraction %.4f implausible", r.MultiCatchmentFrac)
	}
	if r.Elapsed.Hours() < 100 {
		t.Fatalf("simulated duration %v too short for %d configs", r.Elapsed, r.NumConfigs)
	}
	if !strings.Contains(r.String(), "Headline") {
		t.Fatal("String() missing header")
	}
}

func TestTable1(t *testing.T) {
	r := Table1(lab(t))
	if len(r.Rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(r.Rows))
	}
	seen := map[string]bool{}
	for _, row := range r.Rows {
		seen[row.Mux] = true
		if row.Customers == 0 {
			t.Errorf("mux %s bound to non-transit AS", row.Mux)
		}
	}
	if !seen["AMS-IX"] || !seen["UFMG"] {
		t.Fatal("Table I muxes missing")
	}
	if !strings.Contains(r.String(), "Table I") {
		t.Fatal("String() missing header")
	}
}

func TestHijackScenarios(t *testing.T) {
	l := lab(t)
	n := HijackScenarios(l)
	// Every configuration contributes 2^|A| >= 2^4 scenarios.
	if n < len(l.Plan)*16 {
		t.Fatalf("scenario count %d too low", n)
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ablationKnobs) {
		t.Fatalf("%d rows, want one per knob (%d)", len(r.Rows), len(ablationKnobs))
	}
	for _, a := range r.Rows {
		if a.Base < 1 || a.Alt < 1 {
			t.Errorf("%s: mean cluster sizes %.3f / %.3f below one AS", a.Knob, a.Base, a.Alt)
		}
	}
	// The wire codec is lossless: collector observations round-tripped
	// through MRT cluster exactly as the direct feed does.
	if feeds := r.Rows[len(r.Rows)-1]; feeds.Base != feeds.Alt {
		t.Errorf("%s: direct %.3f, MRT round trip %.3f", feeds.Knob, feeds.Base, feeds.Alt)
	}
	if !strings.Contains(r.String(), "Ablations") {
		t.Fatal("String() missing header")
	}
}
