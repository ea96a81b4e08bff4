package spoof

import (
	"net/netip"
	"reflect"
	"testing"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/peering"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// classifierWorld builds a topology, platform, catchments and address
// space for classifier tests.
func classifierWorld(t *testing.T, seed uint64) ([]bgp.LinkID, *addr.Space, *topo.Graph) {
	t.Helper()
	p := topo.DefaultGenParams(seed)
	p.NumASes = 800
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := peering.New(g, peering.Options{EngineParams: bgp.DefaultParams(seed)})
	if err != nil {
		t.Fatal(err)
	}
	anns := make([]bgp.Announcement, plat.NumLinks())
	for i := range anns {
		anns[i] = bgp.Announcement{Link: bgp.LinkID(i)}
	}
	out, err := plat.Deploy(bgp.Config{Anns: anns})
	if err != nil {
		t.Fatal(err)
	}
	return out.CatchmentVector(), addr.Allocate(g), g
}

func TestClassifierVerdicts(t *testing.T) {
	catchment, space, g := classifierWorld(t, 81)
	c := NewClassifier(catchment, addr.PerfectMapper{Space: space})
	// A legitimate packet: source in its own catchment.
	for i := 0; i < g.NumASes(); i++ {
		if catchment[i] == bgp.NoLink {
			continue
		}
		if v := c.Classify(space.HostAddr(i, 0), catchment[i]); v != VerdictLegit {
			t.Fatalf("own-catchment packet classified %v", v)
		}
		// The same source claimed on a different link is spoofed.
		other := (catchment[i] + 1) % 7
		if v := c.Classify(space.HostAddr(i, 0), other); v != VerdictSpoofed {
			t.Fatalf("cross-catchment packet classified %v", v)
		}
		break
	}
	// Unmappable source.
	if v := c.Classify(addr.IXPAddr(1), 0); v != VerdictUnknown {
		t.Fatalf("IXP source classified %v", v)
	}
}

func TestClassifierPerfectMapperPerfectRecallish(t *testing.T) {
	catchment, space, _ := classifierWorld(t, 82)
	c := NewClassifier(catchment, addr.PerfectMapper{Space: space})
	rng := stats.NewRNG(1)
	// Pick an attacker with a route.
	attacker := -1
	for i, l := range catchment {
		if l != bgp.NoLink {
			attacker = i
			break
		}
	}
	flows, err := GenerateTraffic(rng, catchment, space, TrafficParams{
		NumLegit: 2000, NumSpoofed: 2000, AttackerAS: attacker,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := EvaluateClassifier(c, flows)
	// With perfect mapping and true catchments there are no false
	// positives: every legitimate flow matches its catchment.
	if rep.FalsePositives != 0 {
		t.Fatalf("%d false positives with perfect data", rep.FalsePositives)
	}
	// False negatives happen only when the claimed source shares the
	// attacker's link (structurally undetectable), so recall is the
	// fraction of address space outside the attacker's catchment.
	if rep.Recall() < 0.5 {
		t.Fatalf("recall %.2f implausibly low", rep.Recall())
	}
	if rep.Precision() != 1.0 {
		t.Fatalf("precision %.2f, want 1.0", rep.Precision())
	}
	if rep.Unknown != 0 {
		t.Fatalf("%d unknown flows with perfect mapper", rep.Unknown)
	}
}

func TestClassifierNoisyMapperDegrades(t *testing.T) {
	catchment, space, _ := classifierWorld(t, 83)
	noisy, err := addr.NewNoisyMapper(space, 0.3, 83)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClassifier(catchment, noisy)
	rng := stats.NewRNG(2)
	attacker := -1
	for i, l := range catchment {
		if l != bgp.NoLink {
			attacker = i
			break
		}
	}
	flows, err := GenerateTraffic(rng, catchment, space, TrafficParams{
		NumLegit: 2000, NumSpoofed: 0, AttackerAS: attacker,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := EvaluateClassifier(c, flows)
	// Heavy mapping noise must produce false positives on legit traffic.
	if rep.FalsePositives == 0 {
		t.Fatal("30% mapping noise produced no false positives")
	}
}

// fixedMapper maps a handful of addresses to dense AS indices, for
// precise control over the merge table below.
type fixedMapper map[netip.Addr]int

func (m fixedMapper) Map(ip netip.Addr) (int, bool) {
	as, ok := m[ip]
	return as, ok
}

// TestClassifyMergedPrecedence pins the documented two-channel
// precedence rules: probe evidence agreeing with, contradicting, and
// absent from catchment evidence, in every ingress position.
func TestClassifyMergedPrecedence(t *testing.T) {
	// Five ASes: 0 known to both channels (agreeing), 1 known only to the
	// catchment channel, 2 known only to the probe channel, 3 known to
	// both but conflicting (catchment says link 0, probe says link 1),
	// 4 unknown to both.
	addrOf := func(as int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, 0, byte(as), 1})
	}
	mapper := fixedMapper{}
	for as := 0; as < 5; as++ {
		mapper[addrOf(as)] = as
	}
	catchment := []bgp.LinkID{0, 1, bgp.NoLink, 0, bgp.NoLink}
	probeLink := []bgp.LinkID{0, bgp.NoLink, 2, 1, bgp.NoLink}
	c := NewClassifier(catchment, mapper)
	c.SetProbeChannel(&ProbeChannel{Link: probeLink})

	cases := []struct {
		name    string
		as      int
		ingress bgp.LinkID
		want    Verdict
		source  ChannelSource
	}{
		// Rule 3: channels agree → shared expectation decides.
		{"agree-legit", 0, 0, VerdictLegit, ChanAgree},
		{"agree-spoofed", 0, 2, VerdictSpoofed, ChanAgree},
		// Rule 2: catchment only → unchanged single-channel behaviour.
		{"catchment-only-legit", 1, 1, VerdictLegit, ChanCatchment},
		{"catchment-only-spoofed", 1, 0, VerdictSpoofed, ChanCatchment},
		// Rule 2: probe only → previously-Unknown packets become
		// classifiable.
		{"probe-only-legit", 2, 2, VerdictLegit, ChanProbe},
		{"probe-only-spoofed", 2, 0, VerdictSpoofed, ChanProbe},
		// Rule 4: conflict → spoofed only when neither channel matches.
		{"conflict-catchment-matches", 3, 0, VerdictLegit, ChanConflict},
		{"conflict-probe-matches", 3, 1, VerdictLegit, ChanConflict},
		{"conflict-neither-matches", 3, 2, VerdictSpoofed, ChanConflict},
		// Rule 1: neither channel knows the AS.
		{"both-absent", 4, 0, VerdictUnknown, ChanNone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, src := c.ClassifyMerged(addrOf(tc.as), tc.ingress)
			if v != tc.want || src != tc.source {
				t.Fatalf("ClassifyMerged(as=%d, ingress=%d) = (%v, %v), want (%v, %v)",
					tc.as, tc.ingress, v, src, tc.want, tc.source)
			}
		})
	}
	// Unmapped addresses stay unknown and count as ChanNone.
	if v, src := c.ClassifyMerged(netip.AddrFrom4([4]byte{192, 0, 2, 1}), 0); v != VerdictUnknown || src != ChanNone {
		t.Fatalf("unmapped = (%v, %v)", v, src)
	}
	st := c.ChannelStats()
	want := ChannelStats{None: 2, CatchmentOnly: 2, ProbeOnly: 2, Agree: 2, Conflict: 3}
	if st != want {
		t.Fatalf("ChannelStats = %+v, want %+v", st, want)
	}
}

// TestClassifyMergedWithoutProbeChannel: with no probe channel installed
// ClassifyMerged reduces exactly to Classify.
func TestClassifyMergedWithoutProbeChannel(t *testing.T) {
	catchment, space, g := classifierWorld(t, 85)
	c := NewClassifier(catchment, addr.PerfectMapper{Space: space})
	for i := 0; i < g.NumASes(); i += 7 {
		for l := bgp.LinkID(0); l < 7; l++ {
			v1 := c.Classify(space.HostAddr(i, 0), l)
			v2, src := c.ClassifyMerged(space.HostAddr(i, 0), l)
			if v1 != v2 {
				t.Fatalf("AS %d link %d: Classify=%v ClassifyMerged=%v", i, l, v1, v2)
			}
			if src != ChanCatchment && src != ChanNone {
				t.Fatalf("AS %d link %d: source %v without a probe channel", i, l, src)
			}
		}
	}
}

func TestFilterCandidatesBySAV(t *testing.T) {
	// Source positions 0..3 map to dense ASes 10..13.
	sources := []int{10, 11, 12, 13}
	signal := make([]SAVSignal, 20)
	signal[10] = SAVCanSpoof    // corroborated: kept
	signal[11] = SAVCannotSpoof // confirmed filtered: conflicted
	signal[12] = SAVNoData      // unprobed: kept
	signal[13] = SAVCannotSpoof // confirmed filtered: conflicted
	kept, conflicted := FilterCandidatesBySAV([]int{0, 1, 2, 3}, sources, signal)
	if !reflect.DeepEqual(kept, []int{0, 2}) {
		t.Fatalf("kept = %v, want [0 2]", kept)
	}
	if !reflect.DeepEqual(conflicted, []int{1, 3}) {
		t.Fatalf("conflicted = %v, want [1 3]", conflicted)
	}
	// Out-of-range positions and an empty signal vector keep everything.
	kept, conflicted = FilterCandidatesBySAV([]int{0, 7}, sources, nil)
	if len(kept) != 2 || conflicted != nil {
		t.Fatalf("no-signal filter = %v, %v", kept, conflicted)
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

func TestGenerateTrafficValidation(t *testing.T) {
	catchment, space, _ := classifierWorld(t, 84)
	rng := stats.NewRNG(3)
	if _, err := GenerateTraffic(rng, []bgp.LinkID{bgp.NoLink}, space, TrafficParams{NumLegit: 1}); err == nil {
		t.Fatal("no routed ASes accepted")
	}
	if _, err := GenerateTraffic(rng, catchment, space, TrafficParams{AttackerAS: -1}); err == nil {
		t.Fatal("invalid attacker accepted")
	}
}

func TestClassifierReportMath(t *testing.T) {
	r := ClassifierReport{TruePositives: 8, FalsePositives: 2, FalseNegatives: 2}
	if r.Precision() != 0.8 {
		t.Fatalf("precision %v", r.Precision())
	}
	if r.Recall() != 0.8 {
		t.Fatalf("recall %v", r.Recall())
	}
	var zero ClassifierReport
	if zero.Precision() != 0 || zero.Recall() != 0 {
		t.Fatal("zero report should have zero rates")
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictLegit.String() != "legit" || VerdictSpoofed.String() != "spoofed" || VerdictUnknown.String() != "unknown" {
		t.Fatal("verdict names wrong")
	}
	if Verdict(9).String() == "" {
		t.Fatal("unknown verdict should render")
	}
}
