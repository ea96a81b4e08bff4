// Chaos replay: the tentpole acceptance test. A full closed loop —
// offline campaign plus live streaming attribution — runs under a
// fault-injection profile with the provenance ledger attached; then
// Replay re-derives every verdict purely from the exported ledger and
// must reproduce the live ones byte for byte, with the degradation
// events the faults caused present in the evidence chain. The external
// test package lets this file import the root spooftrack package (and
// transitively stream) without a cycle.
package provenance_test

import (
	"bytes"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack"
	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/fault"
	"spooftrack/internal/peering"
	"spooftrack/internal/provenance"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

// chaosLoop runs the closed loop under the named fault profile with a
// ledger attached and returns the export alongside the live pipeline's
// final status. The campaign is wired as spooftrack.NewTracker wires a
// fault profile, except that it tries each configuration twice, not
// four times, with no backoff: at chaos's deployment-fault rate that
// leaves configurations lost, so the degraded path is in the chain.
func chaosLoop(t *testing.T, profile string, seed uint64) (*provenance.Export, stream.Status) {
	t.Helper()
	led := spooftrack.NewProvenanceLedger()

	wp := core.DefaultWorldParams(seed)
	tp := topo.DefaultGenParams(seed)
	tp.NumASes = 300
	wp.Topo = &tp
	wp.MaxPoisonTargets = 10
	w, err := core.BuildWorld(wp)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := fault.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	w.Platform.Health().SetTransitionHook(func(link bgp.LinkID, from, to peering.BreakerState) {
		led.RecordQuarantine(provenance.QuarantineEvent{Link: int(link), From: from.String(), To: to.String()})
	})
	inj := fault.New(prof, seed, w.Platform.NumLinks())
	w.Platform.SetFaultHook(inj)
	camp, err := w.RunCampaign(plan, core.CampaignOptions{
		UseTruth:     true,
		Retry:        fault.Retry{MaxAttempts: 2},
		MeasureFault: inj,
		Ledger:       led,
	})
	if err != nil {
		t.Fatalf("campaign under %s: %v", profile, err)
	}
	asns := make([]topo.ASN, len(camp.Sources))
	for k, src := range camp.Sources {
		asns[k] = w.Graph.ASN(src)
	}

	var current atomic.Int32
	pipe, err := stream.New(stream.Attribution{
		Catchments: camp.Catchments,
		SourceASNs: asns,
		NumLinks:   w.Platform.NumLinks(),
	}, stream.Config{
		Workers:         2,
		EvalInterval:    5 * time.Millisecond,
		MinRoundPackets: 50,
		Settle:          2 * time.Millisecond,
		Ledger:          led,
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			current.Store(int32(cfgIdx))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Synthetic attacker: packets enter on whatever link the attacker's
	// catchment maps to under the currently deployed configuration
	// (degraded rows may say NoLink; those ticks send nothing, which is
	// exactly what a lost measurement looks like).
	attacker := camp.NumSources() / 2
	victim := netip.MustParseAddr("192.0.2.66")
	stop := make(chan struct{})
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			link := camp.Catchments[current.Load()][attacker]
			if link >= 0 {
				pipe.Ingest(amp.Event{
					Time:        time.Now(),
					IngressLink: uint8(link),
					SpoofedSrc:  victim,
					WireLen:     24,
				})
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	deadline := time.After(20 * time.Second)
	for !pipe.Converged() {
		select {
		case <-deadline:
			t.Logf("did not converge under %s; replaying the partial run", profile)
			goto done
		case <-time.After(5 * time.Millisecond):
		}
	}
done:
	close(stop)
	gen.Wait()
	pipe.Close()
	return led.Export(), pipe.Status()
}

// TestReplayReproducesUnderFaultProfiles is the acceptance criterion:
// under both the chaos and probe-storm profiles, Replay over the
// exported ledger reproduces every live verdict byte for byte.
func TestReplayReproducesUnderFaultProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full closed loop; skipped in -short")
	}
	for _, profile := range []string{"chaos", "probe-storm"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			t.Parallel()
			export, st := chaosLoop(t, profile, 42)
			res, err := provenance.Replay(export)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdicts == 0 {
				t.Fatal("no verdicts recorded")
			}
			if st.Rounds > 0 && res.Rounds == 0 {
				t.Fatalf("live run folded %d rounds but the ledger replayed none", st.Rounds)
			}
			if !res.Reproduced {
				t.Fatalf("replay diverged from the live run: %v", res.Mismatches)
			}
			if res.Final == nil {
				t.Fatal("replay produced no final verdict")
			}

			// The degradations the profile caused must be visible in the
			// evidence chain: every degrade event in the export shows up
			// in some configuration's chain.
			degrades := 0
			for _, ev := range export.Events {
				if ev.Kind == provenance.KindDegrade {
					degrades++
				}
			}
			if degrades != res.Degraded {
				t.Fatalf("export has %d degrade events, replay saw %d", degrades, res.Degraded)
			}
			if profile == "chaos" && degrades == 0 {
				t.Fatal("chaos profile with two tries produced no degradations; the chain cannot exercise the degraded path")
			}
			if degrades > 0 {
				ex, err := export.Explain(0)
				if err != nil {
					t.Fatal(err)
				}
				chained := 0
				for _, ch := range ex.Configs {
					chained += len(ch.Degraded)
				}
				if chained != degrades {
					t.Fatalf("explanation chains %d degrade events, export has %d", chained, degrades)
				}
			}
		})
	}
}

// TestReplayLedgerJSONRoundTrip re-runs the replay over a ledger that
// went through WriteJSON/ParseExport — the offline postmortem path: an
// operator saves the ledger file, a different process replays it.
func TestReplayLedgerJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full closed loop; skipped in -short")
	}
	export, _ := chaosLoop(t, "chaos", 7)
	var buf bytes.Buffer
	if err := export.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := provenance.ParseExport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := provenance.Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("replay of the JSON round-tripped ledger diverged: %v", res.Mismatches)
	}
}
