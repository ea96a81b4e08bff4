package fault

import (
	"net/netip"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/measure"
	"spooftrack/internal/metrics"
)

func TestDeployDeterministicAcrossInjectors(t *testing.T) {
	prof, err := ProfileByName("flaky-mux")
	if err != nil {
		t.Fatal(err)
	}
	prof.DeployLatency = 0 // keep the test instant
	a := New(prof, 7, 7)
	b := New(prof, 7, 7)
	for attempt := 0; attempt < 20; attempt++ {
		for _, key := range []string{"0:0;1:0;", "0:4;", "2:0,q64512;"} {
			fa, ea := a.Deploy(key, attempt)
			fb, eb := b.Deploy(key, attempt)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("deploy(%q, %d): divergent outcomes", key, attempt)
			}
			if len(fa) != len(fb) {
				t.Fatalf("deploy(%q, %d): divergent flaps %v vs %v", key, attempt, fa, fb)
			}
			for i := range fa {
				if fa[i] != fb[i] {
					t.Fatalf("deploy(%q, %d): divergent flaps %v vs %v", key, attempt, fa, fb)
				}
			}
		}
	}
}

func TestDeployFailRateAndSeedSensitivity(t *testing.T) {
	prof := Profile{Name: "t", PrDeployFail: 0.3}
	inj := New(prof, 1, 7)
	fails := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := inj.Deploy("cfg", i); err != nil {
			fails++
		}
	}
	if frac := float64(fails) / n; frac < 0.27 || frac > 0.33 {
		t.Fatalf("fail rate %.3f, want ~0.30", frac)
	}
	// A different seed must produce a different fault set.
	other := New(prof, 2, 7)
	same := 0
	for i := 0; i < 200; i++ {
		_, e1 := inj.Deploy("cfg2", i)
		_, e2 := other.Deploy("cfg2", i)
		if (e1 == nil) == (e2 == nil) {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seeds 1 and 2 produced identical fault sets")
	}
}

func TestLatencyInjection(t *testing.T) {
	prof := Profile{Name: "t", DeployLatency: 10 * time.Millisecond}
	inj := New(prof, 3, 2)
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept = d }
	if _, err := inj.Deploy("k", 0); err != nil {
		t.Fatal(err)
	}
	if slept < 5*time.Millisecond || slept > 15*time.Millisecond {
		t.Fatalf("slept %v, want 0.5–1.5× 10ms", slept)
	}
	if inj.Count(KindLatency) != 1 {
		t.Fatalf("latency count = %d", inj.Count(KindLatency))
	}
}

func TestMeasureFaultKeyedOnConfigAndAttempt(t *testing.T) {
	inj := New(Profile{Name: "t", PrMeasureFail: 0.5}, 9, 7)
	// Same (config, attempt) always agrees with itself; over many
	// configs the rate approaches the profile.
	fails := 0
	for cfg := 0; cfg < 2000; cfg++ {
		e1 := inj.Measure(cfg, 0)
		e2 := New(Profile{Name: "t", PrMeasureFail: 0.5}, 9, 7).Measure(cfg, 0)
		if (e1 == nil) != (e2 == nil) {
			t.Fatal("measure fault not deterministic")
		}
		if e1 != nil {
			fails++
		}
	}
	if frac := float64(fails) / 2000; frac < 0.45 || frac > 0.55 {
		t.Fatalf("measure fail rate %.3f, want ~0.5", frac)
	}
}

func TestWrapTapDropsAtProfileRate(t *testing.T) {
	prof, err := ProfileByName("tap-drop")
	if err != nil {
		t.Fatal(err)
	}
	inj := New(prof, 5, 2)
	delivered := 0
	tap := inj.WrapTap(func(amp.Event) { delivered++ })
	ev := amp.Event{SpoofedSrc: netip.MustParseAddr("192.0.2.1"), WireLen: 24}
	const n = 5000
	for i := 0; i < n; i++ {
		tap(ev)
	}
	drops := inj.Count(KindTapDrop)
	if int(drops)+delivered != n {
		t.Fatalf("drops %d + delivered %d != %d", drops, delivered, n)
	}
	if frac := float64(drops) / n; frac < 0.22 || frac > 0.28 {
		t.Fatalf("drop rate %.3f, want ~0.25", frac)
	}
	if inj.WrapTap(nil) != nil {
		t.Fatal("wrapping a nil tap must stay nil")
	}
}

func TestMaskHidesObservedSourcesOnly(t *testing.T) {
	prof := Profile{Name: "t", HideVisibility: 0.5}
	inj := New(prof, 17, 7)
	n := 1000
	m := &measure.CatchmentMeasurement{
		Catchment: make([]bgp.LinkID, n),
		Observed:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			m.Observed[i] = true
			m.Catchment[i] = bgp.LinkID(i % 7)
		} else {
			m.Catchment[i] = bgp.NoLink
		}
	}
	hidden := inj.Mask(0, m)
	if frac := float64(hidden) / 500; frac < 0.4 || frac > 0.6 {
		t.Fatalf("hid %.3f of observed, want ~0.5", frac)
	}
	for i := 0; i < n; i++ {
		if m.Observed[i] && m.Catchment[i] == bgp.NoLink {
			t.Fatal("observed source with NoLink catchment after mask")
		}
		if !m.Observed[i] && m.Catchment[i] != bgp.NoLink {
			t.Fatal("hidden source kept its catchment")
		}
	}
}

func TestProbeSiteDeterministicAndRateAccurate(t *testing.T) {
	prof, err := ProfileByName("probe-storm")
	if err != nil {
		t.Fatal(err)
	}
	prof.ProbeLatency = 0 // keep the test instant
	a, b := New(prof, 21, 7), New(prof, 21, 7)
	lost := 0
	const n = 4000
	for i := 0; i < n; i++ {
		la := a.Probe(i%7, i/7, uint64(i%3))
		lb := b.Probe(i%7, i/7, uint64(i%3))
		if la != lb {
			t.Fatalf("probe loss not deterministic at %d", i)
		}
		if la {
			lost++
		}
	}
	if frac := float64(lost) / n; frac < 0.81 || frac > 0.89 {
		t.Fatalf("probe loss rate %.3f, want ~0.85", frac)
	}
	if a.Count(KindProbeLoss) != int64(lost) {
		t.Fatalf("probe loss count %d, want %d", a.Count(KindProbeLoss), lost)
	}
	// Different seeds roll different losses.
	other := New(prof, 22, 7)
	same := 0
	for i := 0; i < 200; i++ {
		if a.Probe(0, i, 0) == other.Probe(0, i, 0) {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seeds 21 and 22 lost identical probe sets")
	}
}

func TestProbeLatencyInjection(t *testing.T) {
	inj := New(Profile{Name: "t", ProbeLatency: 10 * time.Millisecond}, 3, 2)
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept = d }
	inj.Probe(0, 1, 0)
	if slept < 5*time.Millisecond || slept > 15*time.Millisecond {
		t.Fatalf("slept %v, want 0.5–1.5× 10ms", slept)
	}
	if inj.Count(KindLatency) != 1 {
		t.Fatalf("latency count = %d", inj.Count(KindLatency))
	}
}

func TestProfileRegistry(t *testing.T) {
	for _, name := range []string{"flaky-mux", "slow-converge", "feed-gap", "tap-drop", "probe-storm", "chaos"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Fatalf("ProfileByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ProfileByName("no-such-profile"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if p, err := ProfileByName(""); err != nil || p.Name != "none" {
		t.Fatalf("empty profile = %+v, %v", p, err)
	}
	if len(Profiles()) != len(Names()) {
		t.Fatal("Profiles and Names disagree")
	}
}

func TestInstrumentAndStats(t *testing.T) {
	reg := metrics.NewRegistry()
	inj := New(Profile{Name: "t", PrDeployFail: 1}, 1, 2)
	inj.Instrument(reg)
	if _, err := inj.Deploy("k", 0); err == nil {
		t.Fatal("PrDeployFail=1 must fail")
	}
	st := inj.Stats()
	if st.Counts["deploy_fail"] != 1 {
		t.Fatalf("stats = %+v", st.Counts)
	}
	snap := reg.Snapshot()
	vec, ok := snap["fault_injected_total"].(map[string]any)
	if !ok {
		t.Fatalf("fault_injected_total not in registry snapshot: %+v", snap)
	}
	if v, _ := vec["kind=deploy_fail"].(int64); v != 1 {
		t.Fatalf("fault_injected_total{kind=deploy_fail} = %v, want 1", vec)
	}
}

// TestScheduleSurvivesRetiredKinds pins every surviving site's decisions
// for one seed: roll mixes the kind's number into its hash, so the
// schedule below (captured before kinds 4 and 9 were retired) moves if
// the remaining kinds are ever renumbered.
func TestScheduleSurvivesRetiredKinds(t *testing.T) {
	inj := New(Profile{Name: "t", PrDeployFail: 0.5, PrMeasureFail: 0.5, PrLinkFlap: 0.5, PrTapDrop: 0.5,
		PrProbeLoss: 0.5, HideVisibility: 0.5, PrPartition: 0.5, PrSplitBrain: 0.5}, 7, 2)
	var got []byte
	bit := func(b bool) {
		if b {
			got = append(got, '1')
		} else {
			got = append(got, '0')
		}
	}
	for i := 0; i < 8; i++ {
		flapped, err := inj.Deploy("cfg", i)
		bit(err != nil)
		bit(len(flapped) > 0)
		bit(inj.Measure(i, 0) != nil)
		bit(inj.DropEvent())
		bit(inj.Probe(1, i, 3))
		bit(inj.HideSource(2, i))
		bit(inj.Partitioned("ctl", "s0", i))
		bit(inj.SplitBrain("ctl", uint64(i)))
	}
	if want := "1010100111011001110101010101001000001000011001011001111111111110"; string(got) != want {
		t.Fatalf("schedule %s, want %s", got, want)
	}
}
