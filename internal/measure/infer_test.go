package measure

import (
	"testing"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/peering"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// measureWorld bundles everything an inference test needs.
type measureWorld struct {
	g        *topo.Graph
	platform *peering.Platform
	space    *addr.Space
	vantages VantageSet
	input    InferInput
}

func newMeasureWorld(t testing.TB, seed uint64, numASes, nCollectors, nProbes int) *measureWorld {
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
	v := ChooseVantages(g, seed, nCollectors, nProbes)
	return &measureWorld{
		g:        g,
		platform: plat,
		space:    space,
		vantages: v,
		input: InferInput{
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

func TestChooseVantagesDeterministicAndSized(t *testing.T) {
	g, err := topo.Generate(topo.DefaultGenParams(5))
	if err != nil {
		t.Fatal(err)
	}
	v1 := ChooseVantages(g, 9, 100, 400)
	v2 := ChooseVantages(g, 9, 100, 400)
	if len(v1.Collectors) != 100 || len(v1.Probes) != 400 {
		t.Fatalf("sizes %d/%d, want 100/400", len(v1.Collectors), len(v1.Probes))
	}
	for i := range v1.Collectors {
		if v1.Collectors[i] != v2.Collectors[i] {
			t.Fatal("collectors differ across same-seed calls")
		}
	}
	for i := range v1.Probes {
		if v1.Probes[i] != v2.Probes[i] {
			t.Fatal("probes differ across same-seed calls")
		}
	}
}

func TestChooseVantagesCollectorBias(t *testing.T) {
	g, err := topo.Generate(topo.DefaultGenParams(5))
	if err != nil {
		t.Fatal(err)
	}
	v := ChooseVantages(g, 9, 100, 100)
	transit := 0
	for _, c := range v.Collectors {
		if g.NumCustomers(c) > 0 {
			transit++
		}
	}
	if transit < 50 {
		t.Fatalf("only %d of 100 collectors are transit; want bias toward transit", transit)
	}
}

func TestSynthesizeTracerouteClean(t *testing.T) {
	w := newMeasureWorld(t, 31, 600, 50, 100)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	noise := NoiseParams{RoutersPerAS: 1} // no noise at all
	probe := w.vantages.Probes[0]
	tr, ok := SynthesizeTraceroute(out, w.space, probe, noise, rng)
	if !ok || !tr.Reached {
		t.Fatal("clean traceroute failed")
	}
	last := tr.Hops[len(tr.Hops)-1]
	if last.Addr() != TargetAddr {
		t.Fatalf("last hop %v, want target", last)
	}
	// Every hop except the target maps to an AS on the data path.
	dp := out.DataPath(probe)
	onPath := map[int]bool{}
	for _, idx := range dp {
		onPath[idx] = true
	}
	for _, h := range tr.Hops[:len(tr.Hops)-1] {
		as, ok := w.space.Mapper().Map(uint32(h))
		if !ok || !onPath[as] {
			t.Fatalf("hop %v maps to AS off the data path", h)
		}
	}
}

func TestSynthesizeTracerouteNoiseInjects(t *testing.T) {
	w := newMeasureWorld(t, 32, 600, 50, 200)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	noise := NoiseParams{PrUnresponsive: 0.3, PrIXPHop: 0.3, RoutersPerAS: 3}
	unresp, ixp := 0, 0
	for _, probe := range w.vantages.Probes {
		tr, ok := SynthesizeTraceroute(out, w.space, probe, noise, rng)
		if !ok {
			continue
		}
		for _, h := range tr.Hops {
			if !h.Responsive() {
				unresp++
			} else if addr.IsIXP(uint32(h)) {
				ixp++
			}
		}
	}
	if unresp == 0 || ixp == 0 {
		t.Fatalf("noise not injected: %d unresponsive, %d IXP hops", unresp, ixp)
	}
}

func TestSynthesizeTracerouteProbeFail(t *testing.T) {
	w := newMeasureWorld(t, 33, 600, 10, 100)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	noise := NoiseParams{PrProbeFail: 1.0}
	if _, ok := SynthesizeTraceroute(out, w.space, w.vantages.Probes[0], noise, rng); ok {
		t.Fatal("traceroute succeeded with PrProbeFail=1")
	}
}

func TestASLevelPathCleanMapping(t *testing.T) {
	w := newMeasureWorld(t, 34, 600, 50, 100)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	noise := NoiseParams{RoutersPerAS: 2}
	probe := w.vantages.Probes[1]
	tr, _ := SynthesizeTraceroute(out, w.space, probe, noise, rng)
	seqIdx := newASSeqIndex(nil, peering.PEERINGASN)
	got := ASLevelPath(tr, w.g, w.input.Mapper, seqIdx)
	want := out.DataPath(probe)
	if len(got) != len(want) {
		t.Fatalf("AS path %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AS path %v, want %v", got, want)
		}
	}
}

func TestASLevelPathStage2SameAS(t *testing.T) {
	w := newMeasureWorld(t, 35, 400, 10, 10)
	// Hand-build: AS x router, dead hop, another AS x router, AS y router.
	x, y := 10, 20
	tr := Traceroute{Hops: []Hop{
		Hop(w.space.RouterAddr(x, 0)),
		0,
		Hop(w.space.RouterAddr(x, 1)),
		Hop(w.space.RouterAddr(y, 0)),
	}}
	got := ASLevelPath(tr, w.g, w.input.Mapper, newASSeqIndex(nil, peering.PEERINGASN))
	if len(got) != 2 || got[0] != x || got[1] != y {
		t.Fatalf("stage-2 repair: got %v, want [%d %d]", got, x, y)
	}
}

func TestASLevelPathStage3BGPBridge(t *testing.T) {
	w := newMeasureWorld(t, 36, 400, 10, 10)
	x, mid, y := 10, 15, 20
	// BGP feed shows x mid y ... (terminated by origin), giving a unique
	// bridge for the unmapped gap between x and y.
	paths := map[int][]topo.ASN{
		0: {w.g.ASN(x), w.g.ASN(mid), w.g.ASN(y), peering.PEERINGASN},
	}
	seqIdx := newASSeqIndex(paths, peering.PEERINGASN)
	tr := Traceroute{Hops: []Hop{
		Hop(w.space.RouterAddr(x, 0)),
		0,
		Hop(w.space.RouterAddr(y, 0)),
	}}
	got := ASLevelPath(tr, w.g, w.input.Mapper, seqIdx)
	if len(got) != 3 || got[0] != x || got[1] != mid || got[2] != y {
		t.Fatalf("stage-3 bridge: got %v, want [%d %d %d]", got, x, mid, y)
	}
}

func TestASLevelPathDropsUnbridgeable(t *testing.T) {
	w := newMeasureWorld(t, 37, 400, 10, 10)
	x, y := 10, 20
	tr := Traceroute{Hops: []Hop{
		Hop(w.space.RouterAddr(x, 0)),
		0,
		Hop(w.space.RouterAddr(y, 0)),
	}}
	got := ASLevelPath(tr, w.g, w.input.Mapper, newASSeqIndex(nil, peering.PEERINGASN))
	if len(got) != 2 || got[0] != x || got[1] != y {
		t.Fatalf("unbridgeable gap: got %v, want [%d %d]", got, x, y)
	}
}

func TestASLevelPathIXPHopsDropped(t *testing.T) {
	w := newMeasureWorld(t, 38, 400, 10, 10)
	x, y := 10, 20
	tr := Traceroute{Hops: []Hop{
		Hop(w.space.RouterAddr(x, 0)),
		Hop(addr.IXPAddr(5)),
		Hop(w.space.RouterAddr(y, 0)),
	}}
	got := ASLevelPath(tr, w.g, w.input.Mapper, newASSeqIndex(nil, peering.PEERINGASN))
	if len(got) != 2 || got[0] != x || got[1] != y {
		t.Fatalf("IXP hop handling: got %v, want [%d %d]", got, x, y)
	}
}

func TestInferMatchesTruthCleanWorld(t *testing.T) {
	w := newMeasureWorld(t, 39, 1000, 150, 400)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	obs := Collect(out, w.vantages, w.space, NoiseParams{RoutersPerAS: 2}, rng)
	m := Infer(obs, w.input)
	if m.ObservedCount() == 0 {
		t.Fatal("nothing observed")
	}
	wrong := 0
	for i := 0; i < w.g.NumASes(); i++ {
		if m.Catchment[i] == bgp.NoLink {
			continue
		}
		if m.Catchment[i] != out.CatchmentOf(i) {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(m.ObservedCount()); frac > 0.001 {
		t.Fatalf("clean-world inference wrong for %.2f%% of observed ASes", frac*100)
	}
	if m.MultiCatchment != 0 {
		t.Fatalf("clean world produced %d multi-catchment ASes", m.MultiCatchment)
	}
}

func TestInferAccurateUnderNoise(t *testing.T) {
	w := newMeasureWorld(t, 40, 1000, 150, 400)
	noisy, err := addr.NewNoisyMapper(w.space, 0.02, 40)
	if err != nil {
		t.Fatal(err)
	}
	in := w.input
	in.Mapper = noisy
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	obs := Collect(out, w.vantages, w.space, DefaultNoise(), rng)
	m := Infer(obs, in)
	if m.ObservedCount() < 100 {
		t.Fatalf("only %d ASes observed", m.ObservedCount())
	}
	wrong := 0
	for i := 0; i < w.g.NumASes(); i++ {
		if m.Catchment[i] != bgp.NoLink && m.Catchment[i] != out.CatchmentOf(i) {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(m.ObservedCount()); frac > 0.05 {
		t.Fatalf("noisy inference wrong for %.2f%% of observed ASes, want <5%%", frac*100)
	}
}

func TestInferBGPPriorityOverTraceroute(t *testing.T) {
	w := newMeasureWorld(t, 41, 400, 10, 10)
	// Build a synthetic observation with conflicting evidence for AS x:
	// BGP says link of provider A; a traceroute says link of provider B.
	muxes := w.platform.Muxes()
	provA, provB := muxes[0].Provider, muxes[1].Provider
	x := 30
	obs := Observation{
		BGPPaths: map[int][]topo.ASN{
			x: {w.g.ASN(x), w.g.ASN(provA), peering.PEERINGASN},
		},
		Traceroutes: []Traceroute{{
			ProbeAS: x,
			Reached: true,
			Hops: []Hop{
				Hop(w.space.RouterAddr(x, 0)),
				Hop(w.space.RouterAddr(provB, 0)),
				hopOf(TargetAddr),
			},
		}},
	}
	m := Infer(obs, w.input)
	wantLink := w.input.LinkOf[provA]
	if m.Catchment[x] != wantLink {
		t.Fatalf("catchment %d, want BGP-derived %d", m.Catchment[x], wantLink)
	}
	if m.MultiCatchment != 1 {
		t.Fatalf("MultiCatchment = %d, want 1", m.MultiCatchment)
	}
}

func TestInferMajorityVote(t *testing.T) {
	w := newMeasureWorld(t, 42, 400, 10, 10)
	muxes := w.platform.Muxes()
	provA, provB := muxes[0].Provider, muxes[1].Provider
	x := 30
	mk := func(prov int) Traceroute {
		return Traceroute{
			ProbeAS: x, Reached: true,
			Hops: []Hop{
				Hop(w.space.RouterAddr(x, 0)),
				Hop(w.space.RouterAddr(prov, 0)),
				hopOf(TargetAddr),
			},
		}
	}
	obs := Observation{
		BGPPaths:    map[int][]topo.ASN{},
		Traceroutes: []Traceroute{mk(provA), mk(provB), mk(provB)},
	}
	m := Infer(obs, w.input)
	wantLink := w.input.LinkOf[provB]
	if m.Catchment[x] != wantLink {
		t.Fatalf("catchment %d, want majority %d", m.Catchment[x], wantLink)
	}
}

func TestImputeFillsMissing(t *testing.T) {
	mk := func(catchments map[int]bgp.LinkID, n int) *CatchmentMeasurement {
		m := Unobserved(n)
		for i, l := range catchments {
			m.Catchment[i] = l
		}
		return m
	}
	const n = 5
	// Sources 0,1,2 observed in baseline. Sources 0 and 1 always share a
	// catchment; in config 2, source 1 is missing and must inherit
	// source 0's catchment (its smax).
	ms := []*CatchmentMeasurement{
		mk(map[int]bgp.LinkID{0: 0, 1: 0, 2: 1}, n),
		mk(map[int]bgp.LinkID{0: 1, 1: 1, 2: 0}, n),
		mk(map[int]bgp.LinkID{0: 2, 2: 0}, n),
	}
	res := Impute(ms)
	if len(res.Sources) != 3 {
		t.Fatalf("sources = %v, want 3 baseline sources", res.Sources)
	}
	// Find index of source 1.
	k1 := -1
	for k, s := range res.Sources {
		if s == 1 {
			k1 = k
		}
	}
	if k1 == -1 {
		t.Fatal("source 1 missing")
	}
	if got := res.Catchments[2][k1]; got != 2 {
		t.Fatalf("imputed catchment %d, want 2 (from smax source 0)", got)
	}
	if res.Imputed != 1 {
		t.Fatalf("Imputed = %d, want 1", res.Imputed)
	}
}

func TestImputeEmpty(t *testing.T) {
	res := Impute(nil)
	if len(res.Sources) != 0 || res.Imputed != 0 {
		t.Fatal("empty imputation should be empty")
	}
}

func TestImputeNoMissingNoImputation(t *testing.T) {
	m := &CatchmentMeasurement{Catchment: []bgp.LinkID{0, 1, bgp.NoLink}}
	res := Impute([]*CatchmentMeasurement{m})
	if res.Imputed != 0 {
		t.Fatalf("Imputed = %d, want 0", res.Imputed)
	}
	if len(res.Sources) != 2 {
		t.Fatalf("sources = %v, want 2", res.Sources)
	}
}

func TestObservedCount(t *testing.T) {
	m := &CatchmentMeasurement{Catchment: []bgp.LinkID{3, bgp.NoLink, 0}}
	if m.ObservedCount() != 2 {
		t.Fatal("ObservedCount wrong")
	}
}

func TestCollectMultipleRounds(t *testing.T) {
	w := newMeasureWorld(t, 65, 600, 20, 50)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	noise := NoiseParams{RoutersPerAS: 2, Rounds: 3}
	obs := Collect(out, w.vantages, w.space, noise, stats.NewRNG(4))
	// With no probe loss, exactly 3 traceroutes per probe with a route.
	routedProbes := 0
	for _, p := range w.vantages.Probes {
		if out.HasRoute(p) {
			routedProbes++
		}
	}
	if len(obs.Traceroutes) != 3*routedProbes {
		t.Fatalf("got %d traceroutes for %d routed probes x 3 rounds", len(obs.Traceroutes), routedProbes)
	}
}
