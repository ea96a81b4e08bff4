// Failure injection: the inference pipeline must degrade gracefully
// when measurement modalities disappear or misbehave. The failure modes
// are driven by the shared fault scenario profiles (internal/fault)
// rather than ad-hoc fixtures, so the campaign chaos tests and these
// inference tests exercise the same fault schedules. The package is
// external (measure_test) because fault imports measure.
package measure_test

import (
	"reflect"
	"testing"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/fault"
	"spooftrack/internal/measure"
	"spooftrack/internal/peering"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// failureWorld bundles everything a degradation test needs.
type failureWorld struct {
	g        *topo.Graph
	platform *peering.Platform
	space    *addr.Space
	vantages measure.VantageSet
	input    measure.InferInput
}

func newFailureWorld(t testing.TB, seed uint64, numASes, nCollectors, nProbes int) *failureWorld {
	t.Helper()
	p := topo.DefaultGenParams(seed)
	p.NumASes = numASes
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := peering.New(g, peering.Options{EngineParams: bgp.DefaultParams(seed)})
	if err != nil {
		t.Fatal(err)
	}
	space := addr.Allocate(g)
	return &failureWorld{
		g:        g,
		platform: plat,
		space:    space,
		vantages: measure.ChooseVantages(g, seed, nCollectors, nProbes),
		input: measure.InferInput{
			Graph:     g,
			Mapper:    space.Mapper(),
			OriginASN: peering.PEERINGASN,
			LinkOf:    plat.ProviderLinks(),
		},
	}
}

func anycastAll(n int) bgp.Config {
	anns := make([]bgp.Announcement, n)
	for i := range anns {
		anns[i] = bgp.Announcement{Link: bgp.LinkID(i)}
	}
	return bgp.Config{Anns: anns}
}

func scenario(t *testing.T, name string) fault.Profile {
	t.Helper()
	p, err := fault.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wrongFraction counts observed cells whose inferred catchment differs
// from the routing truth.
func wrongFraction(m *measure.CatchmentMeasurement, out *bgp.Outcome) float64 {
	if m.ObservedCount() == 0 {
		return 0
	}
	wrong := 0
	for i := range m.Catchment {
		if m.Catchment[i] != bgp.NoLink && m.Catchment[i] != out.CatchmentOf(i) {
			wrong++
		}
	}
	return float64(wrong) / float64(m.ObservedCount())
}

// TestModalityLossScenarios: inference survives the total loss of one
// measurement modality — what the feed-gap profile does in the extreme.
func TestModalityLossScenarios(t *testing.T) {
	cases := []struct {
		name                  string
		seed                  uint64
		nCollectors, nProbes  int
		noise                 measure.NoiseParams
		wrongBudget           float64
		wantNoFeeds, wantNoTR bool
	}{
		{name: "no-collectors", seed: 71, nCollectors: 0, nProbes: 300,
			noise: measure.DefaultNoise(), wrongBudget: 0.05, wantNoFeeds: true},
		{name: "no-probes", seed: 72, nCollectors: 150, nProbes: 0,
			noise: measure.DefaultNoise(), wrongBudget: 0, wantNoTR: true},
		{name: "total-probe-loss", seed: 74, nCollectors: 50, nProbes: 200,
			noise: func() measure.NoiseParams {
				n := measure.DefaultNoise()
				n.PrProbeFail = 1.0
				return n
			}(), wrongBudget: 0, wantNoTR: true},
		{name: "pathological-noise", seed: 75, nCollectors: 30, nProbes: 200,
			noise:       measure.NoiseParams{PrUnresponsive: 0.7, PrIXPHop: 0.3, RoutersPerAS: 3, Rounds: 2},
			wrongBudget: 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newFailureWorld(t, tc.seed, 800, tc.nCollectors, tc.nProbes)
			out, err := w.platform.Deploy(anycastAll(7))
			if err != nil {
				t.Fatal(err)
			}
			obs := measure.Collect(out, w.vantages, w.space, tc.noise, stats.NewRNG(tc.seed))
			if tc.wantNoFeeds && len(obs.BGPPaths) != 0 {
				t.Fatal("expected no collector paths")
			}
			if tc.wantNoTR && len(obs.Traceroutes) != 0 {
				t.Fatal("expected no traceroutes")
			}
			m := measure.Infer(obs, w.input)
			if m.ObservedCount() == 0 {
				t.Fatal("the surviving modality should still observe ASes")
			}
			if frac := wrongFraction(m, out); frac > tc.wrongBudget {
				t.Fatalf("%s corrupted %.1f%% of observations (budget %.0f%%)",
					tc.name, frac*100, tc.wrongBudget*100)
			}
		})
	}
}

// TestFeedGapProfileDegradesWithoutCorrupting: starving inference of
// collector feeds and traceroutes may shrink coverage, and the feed-gap
// scenario then hides sources from the measurement that did succeed; the
// cells that survive both must stay correct within the normal noise
// budget. (The profile itself only injects at the measurement level —
// lost rounds and hidden sources — so the evidence is dropped here, at
// the rates a dark-feed window would.)
func TestFeedGapProfileDegradesWithoutCorrupting(t *testing.T) {
	w := newFailureWorld(t, 76, 800, 100, 300)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	clean := measure.Collect(out, w.vantages, w.space, measure.DefaultNoise(), stats.NewRNG(6))
	base := measure.Infer(clean, w.input)

	faulty := measure.Collect(out, w.vantages, w.space, measure.DefaultNoise(), stats.NewRNG(6))
	drop := stats.NewRNG(9)
	for c := 0; c < w.g.NumASes(); c++ { // index order: map iteration would unseed the draw
		if _, ok := faulty.BGPPaths[c]; ok && drop.Bool(0.35) {
			delete(faulty.BGPPaths, c)
		}
	}
	kept := faulty.Traceroutes[:0]
	for _, tr := range faulty.Traceroutes {
		if !drop.Bool(0.50) {
			kept = append(kept, tr)
		}
	}
	faulty.Traceroutes = kept
	if len(faulty.BGPPaths) == len(clean.BGPPaths) || len(faulty.Traceroutes) == len(clean.Traceroutes) {
		t.Fatal("no evidence dropped")
	}
	m := measure.Infer(faulty, w.input)
	if m.ObservedCount() > base.ObservedCount() {
		t.Fatalf("dropping evidence grew coverage: %d > %d", m.ObservedCount(), base.ObservedCount())
	}

	inj := fault.New(scenario(t, "feed-gap"), 9, w.platform.NumLinks())
	before := m.ObservedCount()
	hidden := inj.Mask(0, m)
	if hidden == 0 {
		t.Fatal("feed-gap hid nothing")
	}
	if inj.Count(fault.KindHidden) != int64(hidden) || m.ObservedCount() != before-hidden {
		t.Fatal("injector counters disagree with reported hides")
	}
	if m.ObservedCount() == 0 {
		t.Fatal("feed-gap must degrade coverage, not erase it")
	}
	if frac := wrongFraction(m, out); frac > 0.05 {
		t.Fatalf("feed-gap corrupted %.1f%% of surviving observations", frac*100)
	}
}

// TestFeedGapStableAcrossRetries: the profile's fault schedule is a
// function of (seed, config, site), not of time or call order — two
// identical measurements masked by two identically-seeded injectors
// end up byte-identical, which is what makes campaign retries
// reproducible.
func TestFeedGapStableAcrossRetries(t *testing.T) {
	w := newFailureWorld(t, 77, 600, 80, 200)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	masked := func(cfgIdx int) *measure.CatchmentMeasurement {
		obs := measure.Collect(out, w.vantages, w.space, measure.DefaultNoise(), stats.NewRNG(4))
		m := measure.Infer(obs, w.input)
		inj := fault.New(scenario(t, "feed-gap"), 21, w.platform.NumLinks())
		if inj.Mask(cfgIdx, m) == 0 {
			t.Fatal("feed-gap hid nothing")
		}
		return m
	}
	a, b := masked(3), masked(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("hidden sources differ across retries of the same configuration")
	}
	// A different configuration draws a different schedule.
	if reflect.DeepEqual(a.Catchment, masked(4).Catchment) {
		t.Fatal("different configurations drew identical fault schedules")
	}
}

func TestInferEmptyObservation(t *testing.T) {
	w := newFailureWorld(t, 73, 400, 10, 10)
	m := measure.Infer(measure.Observation{BGPPaths: map[int][]topo.ASN{}}, w.input)
	if m.ObservedCount() != 0 || m.MultiCatchment != 0 {
		t.Fatal("empty observation should observe nothing")
	}
}

// TestBlackoutMaskThenImpute: a profile hiding every source turns a
// configuration's measurement into a blackout; smax imputation is also
// blind there, so every cell stays unknown and clustering by that
// configuration cannot split anything.
func TestBlackoutMaskThenImpute(t *testing.T) {
	baseline := &measure.CatchmentMeasurement{Catchment: []bgp.LinkID{0, 0, 1, 1}}
	blackout := &measure.CatchmentMeasurement{Catchment: []bgp.LinkID{0, 1, 0, 1}}
	inj := fault.New(fault.Profile{Name: "blackout", HideVisibility: 1.0}, 5, 2)
	if hidden := inj.Mask(1, blackout); hidden != 4 {
		t.Fatalf("full-visibility mask hid %d of 4", hidden)
	}
	for i := range blackout.Catchment {
		if blackout.Catchment[i] != bgp.NoLink {
			t.Fatal("masked cells must be unobserved")
		}
	}
	res := measure.Impute([]*measure.CatchmentMeasurement{baseline, blackout})
	if len(res.Sources) != 4 {
		t.Fatalf("sources = %v", res.Sources)
	}
	for k := range res.Sources {
		if res.Catchments[1][k] != bgp.NoLink {
			t.Fatal("blackout config fabricated a catchment")
		}
	}
	if res.Imputed != 0 {
		t.Fatalf("Imputed = %d, want 0 (nothing to copy from)", res.Imputed)
	}
}

// TestPartialMaskIsDeterministic: the same (config, source) pair is
// hidden or visible consistently across retries, and masking only ever
// removes evidence.
func TestPartialMaskIsDeterministic(t *testing.T) {
	const n = 200
	mk := func() *measure.CatchmentMeasurement {
		m := &measure.CatchmentMeasurement{Catchment: make([]bgp.LinkID, n)}
		for i := range m.Catchment {
			m.Catchment[i] = bgp.LinkID(i % 3)
		}
		return m
	}
	prof := scenario(t, "feed-gap")
	a, b := mk(), mk()
	ha := fault.New(prof, 8, 2).Mask(2, a)
	hb := fault.New(prof, 8, 2).Mask(2, b)
	if ha == 0 || ha == n {
		t.Fatalf("partial visibility hid %d of %d", ha, n)
	}
	if ha != hb || !reflect.DeepEqual(a, b) {
		t.Fatal("mask differs across retries of the same configuration")
	}
	for i, l := range a.Catchment {
		if l != bgp.NoLink && l != bgp.LinkID(i%3) {
			t.Fatal("mask corrupted a surviving cell")
		}
	}
}
