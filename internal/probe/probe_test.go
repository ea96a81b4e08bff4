package probe

import (
	"testing"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/peering"
	"spooftrack/internal/spoof"
	"spooftrack/internal/topo"
)

// probeWorld builds a small converged topology with known SAV ground
// truth: the test substrate for every inference assertion.
func probeWorld(t testing.TB, seed uint64, offPathFrac float64) (*SimNet, *bgp.Outcome, *peering.Platform) {
	t.Helper()
	p := topo.DefaultGenParams(seed)
	p.NumASes = 400
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
	out, err := plat.Propagate(bgp.Config{Anns: anns})
	if err != nil {
		t.Fatal(err)
	}
	truth := RandomGroundTruth(g.NumASes(), 0.4, 0.5, seed)
	net, err := NewSimNet(out, truth, offPathFrac, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net, out, plat
}

func TestSimNetSemantics(t *testing.T) {
	net, out, _ := probeWorld(t, 101, 0)
	truth := net.Truth()
	// Find a routed target without any SAV and one with both directions.
	open, closed := -1, -1
	for i := 0; i < out.Graph().NumASes(); i++ {
		if !out.HasRoute(i) {
			continue
		}
		if !truth.InboundSAV[i] && !truth.OutboundSAV[i] && open == -1 {
			open = i
		}
		if truth.InboundSAV[i] && truth.OutboundSAV[i] && closed == -1 {
			closed = i
		}
	}
	if open == -1 || closed == -1 {
		t.Skip("seed produced no suitable targets")
	}

	ctl := net.Send(Probe{Kind: KindControl, Target: open})
	if !ctl.Answered || ctl.Hops != len(out.DataPath(open)) || ctl.Link != out.CatchmentOf(open) {
		t.Fatalf("control reply = %+v, want hops %d on link %d", ctl, len(out.DataPath(open)), out.CatchmentOf(open))
	}
	if r := net.Send(Probe{Kind: KindInbound, Target: open}); !r.Answered {
		t.Fatal("inbound probe filtered by a network without inbound SAV")
	}
	if r := net.Send(Probe{Kind: KindInbound, Target: closed}); r.Answered {
		t.Fatal("inbound probe delivered through inbound SAV")
	}

	query, err := amp.BuildDNSQuery(7, "probe.invalid")
	if err != nil {
		t.Fatal(err)
	}
	r := net.Send(Probe{Kind: KindOutbound, Target: open, Payload: query})
	if !r.Answered {
		t.Fatal("reflection did not escape an unfiltered network")
	}
	if len(r.Payload) <= len(query) {
		t.Fatalf("reflected %d bytes for a %d-byte query: not amplified", len(r.Payload), len(query))
	}
	if r = net.Send(Probe{Kind: KindOutbound, Target: closed, Payload: query}); r.Answered {
		t.Fatal("spoofed reflection escaped through outbound SAV")
	}
	// A garbage payload is not a recognizable amplification request.
	if r = net.Send(Probe{Kind: KindOutbound, Target: open, Payload: []byte("junk")}); r.Answered {
		t.Fatal("reflector answered an unrecognized payload")
	}
	// Unrouted / out-of-range targets never answer.
	for i := 0; i < out.Graph().NumASes(); i++ {
		if !out.HasRoute(i) {
			if r := net.Send(Probe{Kind: KindControl, Target: i}); r.Answered {
				t.Fatalf("unrouted AS %d answered", i)
			}
			break
		}
	}
	if r := net.Send(Probe{Kind: KindControl, Target: -1}); r.Answered {
		t.Fatal("negative target answered")
	}
}

func newTestProber(t testing.TB, net *SimNet, out *bgp.Outcome, plat *peering.Platform, cfg Config) *Prober {
	t.Helper()
	cfg.Net = net
	if cfg.TargetLinks == nil {
		cfg.TargetLinks = out.CatchmentVector()
	}
	if cfg.LinkNames == nil {
		cfg.LinkNames = plat.LinkNames()
	}
	p, err := NewProber(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProberInfersGroundTruthFaultFree(t *testing.T) {
	net, out, plat := probeWorld(t, 102, 0)
	p := newTestProber(t, net, out, plat, Config{PerKind: 4})
	for i := 0; i < 2; i++ {
		p.Round(nil)
	}
	truth := net.Truth()
	st := p.Status()
	if st.Coverage != 1.0 {
		t.Fatalf("fault-free coverage %.3f, want 1.0", st.Coverage)
	}
	checked := 0
	for _, r := range p.Reports() {
		// Fault-free delivery rate is 1, so every verdict is confident.
		if r.InConfidence < HighConfidence || r.OutConfidence < HighConfidence {
			t.Fatalf("AS %d: low confidence without faults: %+v", r.AS, r)
		}
		wantIn, wantOut := SAVAbsent, SAVAbsent
		if truth.InboundSAV[r.AS] {
			wantIn = SAVDeployed
		}
		if truth.OutboundSAV[r.AS] {
			wantOut = SAVDeployed
		}
		if r.Inbound != wantIn || r.Outbound != wantOut {
			t.Fatalf("AS %d: inferred (%v, %v), truth (%v, %v)", r.AS, r.Inbound, r.Outbound, wantIn, wantOut)
		}
		if r.Inbound == SAVAbsent && r.InConfidence != 1 {
			t.Fatalf("AS %d: delivered spoofed probe must be proof, conf %v", r.AS, r.InConfidence)
		}
		checked++
	}
	if checked != p.NumTargets() {
		t.Fatalf("reports cover %d/%d targets", checked, p.NumTargets())
	}
}

func TestBudgetRotationCoversAllTargets(t *testing.T) {
	net, out, plat := probeWorld(t, 103, 0)
	budget := 50
	p := newTestProber(t, net, out, plat, Config{Budget: budget, PerKind: 1})
	n := p.NumTargets()
	rounds := (n + budget - 1) / budget
	for i := 0; i < rounds; i++ {
		rep := p.Round(nil)
		if rep.Visited+rep.Skipped != min(budget, n) {
			t.Fatalf("round %d visited %d + skipped %d, want window %d", i, rep.Visited, rep.Skipped, min(budget, n))
		}
	}
	if st := p.Status(); st.Coverage != 1.0 {
		t.Fatalf("coverage after full rotation %.3f, want 1.0", st.Coverage)
	}
}

func TestOffPathAnswersDiscardedNotTrusted(t *testing.T) {
	net, out, plat := probeWorld(t, 104, 0.3)
	p := newTestProber(t, net, out, plat, Config{PerKind: 3})
	p.Round(nil)
	truth := net.Truth()
	discards := 0
	for _, r := range p.Reports() {
		if r.TTLDiscards == 0 {
			continue
		}
		discards++
		// Contaminated measurements must degrade to explicit Unknown (or
		// be proven Absent by a clean answer) — never promoted to a
		// confident Deployed that contradicts truth.
		if r.Inbound == SAVDeployed && !truth.InboundSAV[r.AS] && r.InConfidence >= HighConfidence {
			t.Fatalf("AS %d: off-path junk produced a wrong confident inbound verdict: %+v", r.AS, r)
		}
		if r.Outbound == SAVDeployed && !truth.OutboundSAV[r.AS] && r.OutConfidence >= HighConfidence {
			t.Fatalf("AS %d: off-path junk produced a wrong confident outbound verdict: %+v", r.AS, r)
		}
	}
	if discards == 0 {
		t.Fatal("30% off-path fraction produced no TTL discards")
	}
	if st := p.Status(); st.Discarded == 0 {
		t.Fatal("status did not tally discards")
	}
}

func TestQuarantinedLinksSkipped(t *testing.T) {
	net, out, plat := probeWorld(t, 105, 0)
	links := out.CatchmentVector()
	badLink := bgp.LinkID(0)
	p := newTestProber(t, net, out, plat, Config{
		PerKind:     1,
		Quarantined: func(l bgp.LinkID) bool { return l == badLink },
	})
	rep := p.Round(nil)
	if rep.Skipped == 0 {
		t.Fatal("no targets skipped with link 0 quarantined")
	}
	for _, r := range p.Reports() {
		if links[r.AS] == badLink {
			t.Fatalf("AS %d behind quarantined link was probed", r.AS)
		}
	}
}

func TestEvidenceBridge(t *testing.T) {
	net, out, plat := probeWorld(t, 106, 0)
	p := newTestProber(t, net, out, plat, Config{PerKind: 4})
	p.Round(nil)
	catchment := out.CatchmentVector()
	truth := net.Truth()

	var pc *spoof.ProbeChannel
	var model *spoof.BCP38Model
	sources := []int{0, 1, 2, 3, 4, 5}
	p.Inference(func(inf *SAVInference) {
		pc = BuildChannel(inf, 0)
		model = InferredBCP38(inf, sources, 0)
	})

	// The probe channel's measured links must agree with the true
	// catchments: SimNet replies arrive on the catchment link.
	a := Audit(pc, catchment)
	if a.Conflict != 0 {
		t.Fatalf("audit found %d conflicts against true catchments: %+v", a.Conflict, a.ConflictASes)
	}
	if a.Agree == 0 {
		t.Fatal("audit found no agreement")
	}
	// Signals must match ground truth exactly in the fault-free world.
	for as, sig := range pc.Signal {
		if !out.HasRoute(as) {
			if sig != spoof.SAVNoData {
				t.Fatalf("unrouted AS %d promoted to %v", as, sig)
			}
			continue
		}
		want := spoof.SAVCanSpoof
		if truth.OutboundSAV[as] {
			want = spoof.SAVCannotSpoof
		}
		if sig != want {
			t.Fatalf("AS %d signal %v, truth wants %v", as, sig, want)
		}
	}
	// The inferred BCP38 model mirrors truth for the probed sources.
	for k, as := range sources {
		if !out.HasRoute(as) {
			continue
		}
		if model.Deployed(k) != truth.OutboundSAV[as] {
			t.Fatalf("source %d (AS %d): inferred deployment %v, truth %v", k, as, model.Deployed(k), truth.OutboundSAV[as])
		}
	}
}

func TestInstrumentationAndStatus(t *testing.T) {
	net, out, plat := probeWorld(t, 107, 0)
	p := newTestProber(t, net, out, plat, Config{PerKind: 2, Budget: 40})
	reg := metrics.NewRegistry()
	p.Instrument(reg)
	rep1 := p.Round(nil)
	rep2 := p.Round(nil)

	st := p.Status()
	if st.Rounds != 2 || st.Sent != int64(rep1.Sent+rep2.Sent) {
		t.Fatalf("status %+v does not match reports %+v %+v", st, rep1, rep2)
	}
	snap := reg.Snapshot()
	sent, ok := snap["probe_sent_total"].(map[string]any)
	if !ok {
		t.Fatalf("probe_sent_total missing from snapshot")
	}
	total := int64(0)
	for _, v := range sent {
		total += v.(int64)
	}
	if total != st.Sent {
		t.Fatalf("probe_sent_total sums to %d, status says %d", total, st.Sent)
	}
	if hs, ok := snap["probe_scan_seconds"].(metrics.HistogramSnapshot); !ok || hs.Count != 2 {
		t.Fatalf("probe_scan_seconds = %+v, want 2 observations", snap["probe_scan_seconds"])
	}
	if cov, ok := snap["probe_coverage"].(float64); !ok || cov != p.Coverage() {
		t.Fatalf("probe_coverage gauge = %v, want %v", snap["probe_coverage"], p.Coverage())
	}
	if _, ok := snap["probe_sav_verdicts_total"].(map[string]any); !ok {
		t.Fatal("probe_sav_verdicts_total missing from snapshot")
	}
}

func TestNewProberValidation(t *testing.T) {
	net, out, _ := probeWorld(t, 108, 0)
	if _, err := NewProber(Config{TargetLinks: out.CatchmentVector()}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewProber(Config{Net: net}); err == nil {
		t.Fatal("missing target links accepted")
	}
	if _, err := NewProber(Config{Net: net, TargetLinks: out.CatchmentVector(), Targets: []int{99999}}); err == nil {
		t.Fatal("out-of-range explicit target accepted")
	}
	if _, err := NewProber(Config{Net: net, TargetLinks: []bgp.LinkID{bgp.NoLink}}); err == nil {
		t.Fatal("zero routable targets accepted")
	}
	if _, err := NewSimNet(out, GroundTruth{}, 0, 1); err == nil {
		t.Fatal("undersized ground truth accepted")
	}
	if _, err := NewSimNet(out, net.Truth(), 1.5, 1); err == nil {
		t.Fatal("off-path fraction 1.5 accepted")
	}
}

func TestKindAndStateStrings(t *testing.T) {
	if KindControl.String() != "control" || KindInbound.String() != "inbound" || KindOutbound.String() != "outbound" {
		t.Fatal("kind names wrong")
	}
	if SAVUnknown.String() != "unknown" || SAVDeployed.String() != "deployed" || SAVAbsent.String() != "absent" {
		t.Fatal("state names wrong")
	}
	if Kind(9).String() == "" || SAVState(9).String() == "" {
		t.Fatal("out-of-range values must still render")
	}
}
