package probe

import (
	"testing"

	"spooftrack/internal/fault"
)

// The probe-storm chaos suite pins the subsystem's graceful-degradation
// contract: when most probes are lost and the survivors crawl, SAV
// inference must degrade to explicit low-confidence verdicts — never to
// wrong high-confidence ones — and recover honestly as rounds
// accumulate.

func TestProbeStormDegradesToLowConfidence(t *testing.T) {
	net, out, plat := probeWorld(t, 201, 0)
	prof, err := fault.ProfileByName("probe-storm")
	if err != nil {
		t.Fatal(err)
	}
	// The storm's injected latency is real wall-clock sleep (covered by
	// the fault package's own tests); zero it so 14 rounds of loss
	// statistics stay fast.
	prof.ProbeLatency = 0
	inj := fault.New(prof, 201, plat.NumLinks())
	p := newTestProber(t, net, out, plat, Config{PerKind: 3, Fault: inj})
	truth := net.Truth()

	assertConfidentVerdictsCorrect := func(phase string) (low, highAbsent, highDeployed int) {
		t.Helper()
		for _, r := range p.Reports() {
			for _, dir := range []struct {
				st    SAVState
				conf  float64
				truth bool
			}{
				{r.Inbound, r.InConfidence, truth.InboundSAV[r.AS]},
				{r.Outbound, r.OutConfidence, truth.OutboundSAV[r.AS]},
			} {
				if dir.conf < HighConfidence {
					low++
					continue
				}
				if dir.st == SAVAbsent {
					highAbsent++
				} else {
					highDeployed++
				}
				// A high-confidence verdict must match ground truth.
				want := SAVAbsent
				if dir.truth {
					want = SAVDeployed
				}
				if dir.st != want {
					t.Fatalf("%s: AS %d holds wrong high-confidence verdict %v (conf %.3f), truth %v: %+v",
						phase, r.AS, dir.st, dir.conf, want, r)
				}
			}
		}
		return low, highAbsent, highDeployed
	}

	// Phase 1: two rounds under the storm. Delivered spoofed probes are
	// proof at any loss rate (SAVAbsent stays legitimate), but every
	// silence-based Deployed verdict must sit below the confidence
	// threshold: 85% loss makes silence nearly meaningless.
	for i := 0; i < 2; i++ {
		p.Round(nil)
	}
	low, _, highDeployed := assertConfidentVerdictsCorrect("storm")
	if low == 0 {
		t.Fatal("storm produced no low-confidence verdicts")
	}
	if highDeployed != 0 {
		t.Fatalf("storm promoted %d silence-based verdicts to high confidence after 2 rounds", highDeployed)
	}
	if st := p.Status(); st.Lost == 0 || float64(st.Lost)/float64(st.Sent) < 0.8 {
		t.Fatalf("storm loss %d/%d, want ~85%%", st.Lost, st.Sent)
	}
	if inj.Count(fault.KindProbeLoss) == 0 {
		t.Fatal("injector counted no probe losses")
	}

	// The evidence bridge must promote none of the shaky verdicts into
	// wrong attribution signals.
	var pc *ProbeChannel
	p.Inference(func(inf *SAVInference) { pc = BuildChannel(inf) })
	for as, sig := range pc.Signal {
		if sig == SAVNoData {
			continue
		}
		want := SAVCanSpoof
		if truth.OutboundSAV[as] {
			want = SAVCannotSpoof
		}
		if sig != want {
			t.Fatalf("storm promoted wrong signal %v for AS %d (truth %v)", sig, as, want)
		}
	}

	// Phase 2: recovery. Twelve more rounds accumulate enough probes
	// that silence becomes meaningful again — Deployed verdicts climb
	// back over the threshold, and every promoted verdict stays
	// truthful along the way.
	for i := 0; i < 12; i++ {
		p.Round(nil)
	}
	low2, high2, highDeployed2 := assertConfidentVerdictsCorrect("recovery")
	if highDeployed2 == 0 {
		t.Fatal("confidence in silence-based verdicts did not recover with more rounds")
	}
	if conf := high2 + highDeployed2; conf < low2 {
		t.Fatalf("after 14 storm rounds only %d/%d verdicts are confident", conf, conf+low2)
	}
}

// TestProbeStormDeterministic pins that a storm-afflicted scan is a
// pure function of its seeds: two identically built probers agree on
// every tally after every round.
func TestProbeStormDeterministic(t *testing.T) {
	build := func() *Prober {
		net, out, plat := probeWorld(t, 202, 0)
		prof, err := fault.ProfileByName("probe-storm")
		if err != nil {
			t.Fatal(err)
		}
		prof.ProbeLatency = 0 // timing noise off; loss rolls are seeded anyway
		inj := fault.New(prof, 202, plat.NumLinks())
		return newTestProber(t, net, out, plat, Config{PerKind: 2, Budget: 60, Fault: inj})
	}
	a, b := build(), build()
	for i := 0; i < 4; i++ {
		ra, rb := a.Round(nil), b.Round(nil)
		ra.Duration, rb.Duration = 0, 0
		if ra != rb {
			t.Fatalf("round %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	sa, sb := a.Status(), b.Status()
	sa.Coverage, sb.Coverage = 0, 0
	if sa.Sent != sb.Sent || sa.Lost != sb.Lost || sa.Answered != sb.Answered {
		t.Fatalf("status diverged: %+v vs %+v", sa, sb)
	}
}
