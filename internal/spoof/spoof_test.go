package spoof

import (
	"math"
	"sort"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/stats"
)

func TestPlaceUniformConserved(t *testing.T) {
	rng := stats.NewRNG(1)
	p := PlaceUniform(rng, 100, 500)
	if got := p.TotalVolume(); got != 500 {
		t.Fatalf("total volume %v, want 500", got)
	}
}

func TestPlaceUniformSpread(t *testing.T) {
	rng := stats.NewRNG(2)
	p := PlaceUniform(rng, 50, 5000)
	// With 100 bots per AS expected, every AS should have some and none
	// should dominate.
	for k, w := range p.Weight {
		if w == 0 {
			t.Fatalf("source %d empty under uniform placement", k)
		}
		if w > 300 {
			t.Fatalf("source %d holds %v bots; uniform should not concentrate", k, w)
		}
	}
}

func TestPlaceParetoConcentrates(t *testing.T) {
	rng := stats.NewRNG(3)
	p := PlacePareto(rng, 200, 10000)
	if got := p.TotalVolume(); got != 10000 {
		t.Fatalf("total volume %v, want 10000", got)
	}
	// Top 20% of ASes should hold well over half the volume.
	w := append([]float64(nil), p.Weight...)
	sort.Float64s(w)
	top := 0.0
	for _, v := range w[len(w)*8/10:] {
		top += v
	}
	if frac := top / 10000; frac < 0.55 {
		t.Fatalf("top-20%% holds %.2f of volume; want Pareto concentration", frac)
	}
}

func TestPlaceSingle(t *testing.T) {
	rng := stats.NewRNG(4)
	p := PlaceSingle(rng, 10)
	active := 0
	for _, w := range p.Weight {
		if w > 0 {
			active++
		}
	}
	if active != 1 || p.TotalVolume() != 1 {
		t.Fatalf("single placement wrong: %+v", p)
	}
}

func TestLinkVolumes(t *testing.T) {
	catchment := []bgp.LinkID{0, 0, 1, bgp.NoLink}
	p := Placement{Weight: []float64{1, 2, 3, 4}}
	v := LinkVolumes(catchment, p, 2)
	if v[0] != 3 || v[1] != 3 {
		t.Fatalf("volumes %v, want [3 3]", v)
	}
}

func TestLinkVolumesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LinkVolumes([]bgp.LinkID{0}, Placement{Weight: []float64{1, 2}}, 2)
}

func TestTrafficBySizeSingleton(t *testing.T) {
	// All traffic from a singleton cluster: curve jumps to 1 at size 1.
	part := cluster.New(4)
	part.Refine([]bgp.LinkID{0, 1, 1, 1})
	p := Placement{Weight: []float64{5, 0, 0, 0}}
	curve := TrafficBySize(part, p)
	if len(curve) != 1 || curve[0].Size != 1 || curve[0].CumFrac != 1 {
		t.Fatalf("curve %v, want [{1 1}]", curve)
	}
}

func TestTrafficBySizeMixed(t *testing.T) {
	part := cluster.New(4)
	part.Refine([]bgp.LinkID{0, 1, 1, 1}) // sizes 1 and 3
	p := Placement{Weight: []float64{1, 1, 1, 1}}
	curve := TrafficBySize(part, p)
	if len(curve) != 2 {
		t.Fatalf("curve %v", curve)
	}
	if curve[0].Size != 1 || math.Abs(curve[0].CumFrac-0.25) > 1e-12 {
		t.Fatalf("first point %v, want {1 0.25}", curve[0])
	}
	if curve[1].Size != 3 || curve[1].CumFrac != 1 {
		t.Fatalf("second point %v, want {3 1}", curve[1])
	}
}

func TestTrafficBySizeEmpty(t *testing.T) {
	part := cluster.New(2)
	if c := TrafficBySize(part, Placement{Weight: []float64{0, 0}}); c != nil {
		t.Fatal("zero-volume placement should produce nil curve")
	}
}

func TestAverageTrafficBySize(t *testing.T) {
	c1 := []TrafficBySizePoint{{Size: 1, CumFrac: 1}}
	c2 := []TrafficBySizePoint{{Size: 2, CumFrac: 1}}
	avg := AverageTrafficBySize([][]TrafficBySizePoint{c1, c2}, 3)
	if len(avg) != 3 {
		t.Fatalf("avg %v", avg)
	}
	if avg[0].CumFrac != 0.5 { // only c1 has mass at size 1
		t.Fatalf("avg at 1 = %v, want 0.5", avg[0].CumFrac)
	}
	if avg[1].CumFrac != 1 || avg[2].CumFrac != 1 {
		t.Fatalf("avg tail %v, want 1", avg[1:])
	}
}

func TestAverageTrafficBySizeEmpty(t *testing.T) {
	if got := AverageTrafficBySize(nil, 5); got != nil {
		t.Fatal("empty input should be nil")
	}
}

func TestLocalizeSingleSource(t *testing.T) {
	// 4 sources; three configs whose catchments separate everyone.
	catchments := [][]bgp.LinkID{
		{0, 0, 1, 1},
		{0, 1, 0, 1},
		{1, 0, 0, 0},
	}
	p := Placement{Weight: []float64{0, 0, 1, 0}} // source 2 attacks
	volumes := make([][]float64, len(catchments))
	for c := range catchments {
		volumes[c] = LinkVolumes(catchments[c], p, 2)
	}
	cands := Localize(catchments, volumes)
	if len(cands) != 1 || cands[0] != 2 {
		t.Fatalf("candidates %v, want [2]", cands)
	}
	rep := Evaluate(cands, p)
	if rep.TruePositives != 1 || rep.Missed != 0 || rep.Candidates != 1 {
		t.Fatalf("report %+v", rep)
	}
}

func TestLocalizeNeverEliminatesTrueSources(t *testing.T) {
	rng := stats.NewRNG(9)
	const n, configs = 40, 12
	catchments := make([][]bgp.LinkID, configs)
	for c := range catchments {
		v := make([]bgp.LinkID, n)
		for k := range v {
			v[k] = bgp.LinkID(rng.Intn(4))
		}
		catchments[c] = v
	}
	p := PlacePareto(rng, n, 100)
	volumes := make([][]float64, configs)
	for c := range catchments {
		volumes[c] = LinkVolumes(catchments[c], p, 4)
	}
	rep := Evaluate(Localize(catchments, volumes), p)
	if rep.Missed != 0 {
		t.Fatalf("%d true sources eliminated; correlation must be sound", rep.Missed)
	}
}

func TestLocalizeUnknownCatchmentNotEliminated(t *testing.T) {
	catchments := [][]bgp.LinkID{{bgp.NoLink, 0}}
	p := Placement{Weight: []float64{0, 1}}
	volumes := [][]float64{LinkVolumes(catchments[0], p, 1)}
	cands := Localize(catchments, volumes)
	// Source 0 has unknown catchment: cannot be ruled out.
	if len(cands) != 2 {
		t.Fatalf("candidates %v, want both", cands)
	}
}

func TestLocalizeEmpty(t *testing.T) {
	if got := Localize(nil, nil); got != nil {
		t.Fatal("empty localization should be nil")
	}
}
