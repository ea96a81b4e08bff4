package measure

import (
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

func TestActiveProbeExactForResponders(t *testing.T) {
	w := newMeasureWorld(t, 61, 800, 50, 100)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ActiveProbeCatchments(out, w.space, ActiveProbeParams{PrReply: 1, PrRateLimited: 0}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Full response rate: every routed AS observed, all exact.
	for i := 0; i < w.g.NumASes(); i++ {
		truth := out.CatchmentOf(i)
		if truth == bgp.NoLink {
			if m.Observed[i] {
				t.Fatalf("unrouted AS observed")
			}
			continue
		}
		if !m.Observed[i] || m.Catchment[i] != truth {
			t.Fatalf("AS index %d: measured %d, truth %d", i, m.Catchment[i], truth)
		}
	}
}

func TestActiveProbeCoverage(t *testing.T) {
	w := newMeasureWorld(t, 62, 800, 50, 100)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultActiveProbeParams()
	m, err := ActiveProbeCatchments(out, w.space, p, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for i := range w.g.NumASes() {
		if out.HasRoute(i) {
			routed++
		}
	}
	frac := float64(m.ObservedCount()) / float64(routed)
	want := p.PrReply * (1 - p.PrRateLimited)
	if frac < want-0.05 || frac > want+0.05 {
		t.Fatalf("coverage %.3f, want ~%.3f", frac, want)
	}
	// All observations exact (replies follow the data plane).
	for i := range m.Catchment {
		if m.Observed[i] && m.Catchment[i] != out.CatchmentOf(i) {
			t.Fatal("active probing produced a wrong catchment")
		}
	}
}

func TestActiveProbeValidation(t *testing.T) {
	w := newMeasureWorld(t, 63, 400, 10, 10)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ActiveProbeCatchments(out, w.space, ActiveProbeParams{PrReply: 1.5}, stats.NewRNG(1)); err == nil {
		t.Fatal("invalid probability accepted")
	}
}

func TestMergeMeasurements(t *testing.T) {
	mk := func(catchment []bgp.LinkID, observed []bool) *CatchmentMeasurement {
		return &CatchmentMeasurement{Catchment: catchment, Observed: observed}
	}
	primary := mk([]bgp.LinkID{0, bgp.NoLink, 2}, []bool{true, false, true})
	secondary := mk([]bgp.LinkID{1, 1, 1}, []bool{true, true, true})
	merged := MergeMeasurements(primary, secondary)
	// AS 0: both observed, primary wins, conflict counted.
	if merged.Catchment[0] != 0 {
		t.Fatal("primary assignment lost")
	}
	// AS 1: only secondary observed.
	if !merged.Observed[1] || merged.Catchment[1] != 1 {
		t.Fatal("secondary fill-in lost")
	}
	// Conflicts: AS 0 (0 vs 1) and AS 2 (2 vs 1).
	if merged.MultiCatchment != 2 {
		t.Fatalf("MultiCatchment = %d, want 2", merged.MultiCatchment)
	}
}

func TestMergeImprovesCoverage(t *testing.T) {
	w := newMeasureWorld(t, 64, 800, 50, 150)
	out, err := w.platform.Deploy(anycastAll(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	obs := Collect(out, w.vantages, w.space, DefaultNoise(), rng)
	inferred := Infer(obs, w.input)
	active, err := ActiveProbeCatchments(out, w.space, DefaultActiveProbeParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeMeasurements(inferred, active)
	if merged.ObservedCount() <= inferred.ObservedCount() {
		t.Fatalf("merging active probing did not improve coverage: %d vs %d",
			merged.ObservedCount(), inferred.ObservedCount())
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
