// Explain a verdict: the decision-provenance ledger end to end. The
// example runs the closed loop — one spoofing attacker flooding an
// AmpPot-style honeypot through the border router, the streaming
// pipeline refining localization and deploying greedy configurations
// online — with a provenance ledger attached to both the offline
// campaign and the live controller. After convergence it turns the
// ledger into the three operator artifacts:
//
//   - a JSON timeline (explain-verdict-ledger.json) and a DOT provenance
//     graph (explain-verdict-ledger.dot; render with `dot -Tsvg`),
//   - the evidence chain behind the attacker's cluster — every
//     configuration deployed (with retries and catchment rows), every
//     round folded, every reconfiguration decision with the candidate
//     set it beat,
//   - a deterministic replay of the whole run purely from the ledger,
//     asserting it reproduces the live verdict byte for byte.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"slices"
	"time"

	"spooftrack"
	"spooftrack/internal/amp"
	"spooftrack/internal/provenance"
	"spooftrack/internal/stream"
)

func main() {
	ledgerPath := flag.String("ledger", "explain-verdict-ledger.json",
		"write the JSON ledger timeline here (empty = off)")
	dotPath := flag.String("dot", "explain-verdict-ledger.dot",
		"write the DOT provenance graph here (empty = off)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout, *ledgerPath, *dotPath)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "explain-verdict:", err)
		os.Exit(1)
	}
}

// run localizes one attacker with the ledger recording, writes the
// timeline to ledgerPath and the graph to dotPath (either may be empty),
// and fails unless the attacker is a candidate, its cluster is explained
// and the replay reproduces every verdict.
func run(ctx context.Context, w io.Writer, ledgerPath, dotPath string) error {
	// The ledger is built first and handed to the tracker, so the
	// offline campaign's deployments and catchment rows are evidence
	// leaves in the same record as the live rounds.
	led := spooftrack.NewProvenanceLedger()

	params := spooftrack.DefaultTrackerParams(17)
	tp := spooftrack.DefaultGenParams(17)
	tp.NumASes = 1000
	params.World.Topo = &tp
	params.World.MaxPoisonTargets = 20
	params.UseTruth = true
	params.Ctx = ctx
	params.Ledger = led
	fmt.Fprintln(w, "offline: deploying campaign and measuring catchments (ledger recording)...")
	tracker, err := spooftrack.NewTracker(params)
	if err != nil {
		return err
	}
	camp := tracker.Campaign

	// Packet plane on loopback.
	hp, err := amp.NewHoneypot("127.0.0.1:0", amp.DefaultHoneypotConfig())
	if err != nil {
		return err
	}
	defer hp.Close()
	border, err := amp.NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), nil)
	if err != nil {
		return err
	}
	defer border.Close()

	// Streaming pipeline with the same ledger: every round fold,
	// reconfiguration decision, and per-fold verdict goes on the record.
	pipe, err := stream.New(stream.Attribution{
		Catchments: camp.Catchments,
		SourceASNs: tracker.SourceASNs(),
		NumLinks:   tracker.World.Platform.NumLinks(),
	}, stream.Config{
		EvalInterval:    50 * time.Millisecond,
		MinRoundPackets: 40,
		Settle:          10 * time.Millisecond,
		Ledger:          led,
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			border.SetCatchments(table)
			fmt.Fprintf(w, "  deploy: configuration %d\n", cfgIdx)
		},
	})
	if err != nil {
		return err
	}
	defer pipe.Close()
	hp.SetTap(func(ev amp.Event) { pipe.Ingest(ev) })

	// The attack: one spoofing source, flooding until convergence.
	rng := spooftrack.NewRNG(7)
	attackerIdx := rng.Intn(camp.NumSources())
	attackerASN := tracker.SourceASNs()[attackerIdx]
	fmt.Fprintf(w, "attack begins: AS%d (source %d) spoofing 192.0.2.66\n", attackerASN, attackerIdx)
	attack, err := amp.NewAttacker(uint32(attackerASN), netip.MustParseAddr("192.0.2.66"))
	if err != nil {
		return err
	}
	defer attack.Close()

	deadline := time.Now().Add(30 * time.Second)
	for !pipe.Converged() && time.Now().Before(deadline) && ctx.Err() == nil {
		if _, err := attack.Flood(border.Addr(), 30, 8); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	hp.SetTap(nil)
	pipe.Close()
	if err := ctx.Err(); err != nil {
		return err
	}

	st := pipe.Status(3)
	fmt.Fprintf(w, "\nprocessed %d events over %d rounds (%d online reconfigurations)\n",
		st.TotalEvents, st.Rounds, st.Reconfigurations)
	if !slices.Contains(pipe.Candidates(), attackerIdx) {
		return fmt.Errorf("attacker AS%d is not among the candidates", attackerASN)
	}

	// 1. Export: the full timeline, as JSON and as a provenance graph.
	export := led.Export()
	fmt.Fprintf(w, "ledger: %d events recorded\n", len(export.Events))
	verdicts := export.Verdicts()
	for _, v := range verdicts {
		tag := ""
		if v.Final {
			tag = "  <-- final"
		}
		fmt.Fprintf(w, "  verdict seq=%d origin=%s round=%d clusters=%d converged=%v%s\n",
			v.Seq, v.Origin, v.Round, v.Clusters, v.Converged, tag)
	}
	if ledgerPath != "" {
		if err := writeTo(ledgerPath, export.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote JSON timeline to %s\n", ledgerPath)
	}
	if dotPath != "" {
		if err := writeTo(dotPath, export.WriteDOT); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote provenance graph to %s (render: dot -Tsvg %s)\n", dotPath, dotPath)
	}

	// 2. Explain: the evidence chain behind the attacker's cluster.
	if len(verdicts) == 0 || st.Rounds == 0 {
		return errors.New("no rounds folded; nothing to explain")
	}
	final := verdicts[len(verdicts)-1]
	ex, err := export.Explain(attackerCluster(export, attackerIdx))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nexplaining cluster %d of the final verdict (round %d, %d clusters):\n",
		ex.Cluster, final.Round, final.Clusters)
	fmt.Fprintf(w, "  members: %d source(s), attacker source %d included\n", len(ex.Members), attackerIdx)
	fmt.Fprintf(w, "  evidence: %d configuration chains, %d rounds, %d reconfigurations, %d probe verdicts, %d quarantine transitions\n",
		len(ex.Configs), len(ex.Rounds), len(ex.Reconfigs), len(ex.Probes), len(ex.Quarantines))
	for _, rc := range ex.Reconfigs {
		fmt.Fprintf(w, "  round %d: chose configuration %d (%s) over %d candidates\n",
			rc.Round, rc.Chosen, rc.Reason, len(rc.Beaten))
	}

	// 3. Replay: re-run classification and localization purely from the
	// ledger and check the verdicts match byte for byte.
	res, err := provenance.Replay(export)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nreplay: %d rounds, %d reconfigs, %d verdicts re-derived; reproduced=%v\n",
		res.Rounds, res.Reconfigs, res.Verdicts, res.Reproduced)
	for _, m := range res.Mismatches {
		fmt.Fprintf(w, "  MISMATCH: %s\n", m)
	}
	if !res.Reproduced {
		return errors.New("the replay did not reproduce the live verdicts")
	}
	fmt.Fprintln(w, "the live verdict is fully accounted for by the recorded evidence")
	return nil
}

// attackerCluster returns the final verdict's cluster id for the
// attacker's source position (0 when there is no verdict yet).
func attackerCluster(e *provenance.Export, src int) int {
	vs := e.Events
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].Kind == provenance.KindVerdict && vs[i].Verdict != nil {
			if a := vs[i].Verdict.Assign; src < len(a) {
				return int(a[src])
			}
			return 0
		}
	}
	return 0
}

// writeTo creates path and streams fn into it.
func writeTo(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
