// DDoS localization: the full pipeline at packet level, closed-loop,
// from the attack to the operator's answer. An AmpPot-style honeypot
// and a border router run over loopback UDP; spoofing attackers flood
// the honeypot while the daemon's loop, a one-shard shard.Cluster,
// counts every packet through the honeypot's event tap. Each step the
// flood loop takes folds a round, refines the localization, and deploys
// the next greedy configuration online (§V-C) by swapping the border's
// live catchment table. A provenance ledger records the offline
// campaign and every live decision. After convergence the example
// checks, in order, that
//
//  1. every attacker is among the candidates;
//  2. the ledger, written as a JSON timeline and a DOT provenance graph
//     (render with `dot -Tsvg`) and read back from the JSON file,
//     explains each attacker's cluster and replays every verdict;
//  3. BGP flowspec (RFC 5575) drop rules for the candidate networks,
//     disseminated in wire format and installed at the border, stop
//     every attack packet (§I).
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
	"time"

	"spooftrack"
	"spooftrack/internal/amp"
	"spooftrack/internal/flowspec"
	"spooftrack/internal/provenance"
	"spooftrack/internal/shard"
	"spooftrack/internal/stream"
)

const numAttackers = 2

// victim is the address the attackers spoof; protect is the prefix the
// flowspec rules guard, and memcached's port the service they scope to.
var (
	victim  = netip.MustParseAddr("192.0.2.66")
	protect = netip.MustParsePrefix("192.0.2.0/24")
)

const memcachedPort = 11211

func main() {
	ledgerPath := flag.String("ledger", "ddos-localization-ledger.json",
		"write the JSON ledger timeline here and replay from it (empty = off)")
	dotPath := flag.String("dot", "ddos-localization-ledger.dot",
		"write the DOT provenance graph here (empty = off)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout, *ledgerPath, *dotPath)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddos-localization:", err)
		os.Exit(1)
	}
}

// run floods the honeypot from numAttackers spoofing ASes until the live
// loop converges, writes the ledger timeline to ledgerPath and the graph
// to dotPath (either may be empty), and fails unless every attacker is a
// candidate, each attacker's cluster is explained, the replay reproduces
// every verdict, and the installed filter stops every attack packet.
func run(ctx context.Context, w io.Writer, ledgerPath, dotPath string) error {
	// Offline phase: measure catchments for the whole campaign before
	// any attack (UseTruth keeps the example fast). The ledger is handed
	// to the tracker, so the campaign's deployments and catchment rows
	// are evidence leaves in the same record as the live rounds.
	led := spooftrack.NewProvenanceLedger()
	params := spooftrack.DefaultTrackerParams(11)
	tp := spooftrack.DefaultGenParams(11)
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

	// Packet-level infrastructure on loopback.
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

	// Streaming attribution: the honeypot tap feeds the cluster's one
	// intake, its Deploy callback reconfigures the border online, and
	// every round fold, reconfiguration and verdict goes on the record.
	cl, err := shard.NewCluster(shard.ClusterConfig{
		Shards: 1,
		Attr: stream.Attribution{
			Catchments: camp.Catchments,
			SourceASNs: tracker.SourceASNs(),
			NumLinks:   tracker.World.Platform.NumLinks(),
		},
		MinRoundPackets: 60,
		Pipe: stream.Config{
			Settle: 10 * time.Millisecond,
			Ledger: led,
			Deploy: func(cfgIdx int, table map[uint32]uint8) {
				border.SetCatchments(table)
				fmt.Fprintf(w, "  deploy: configuration %d\n", cfgIdx)
			},
		},
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	hp.SetTap(func(ev amp.Event) { cl.Ingest(ev) })

	// Attack begins: pick attacker ASes.
	rng := spooftrack.NewRNG(3)
	attackers := make([]int, numAttackers) // source positions
	clients := make([]*amp.Attacker, numAttackers)
	for i := range attackers {
		attackers[i] = rng.Intn(camp.NumSources())
		asn := tracker.SourceASNs()[attackers[i]]
		clients[i], err = amp.NewAttacker(uint32(asn), victim)
		if err != nil {
			return err
		}
		defer clients[i].Close()
		fmt.Fprintf(w, "attacker %d spoofing from AS%d\n", i+1, asn)
	}

	// Online phase: flood until the attribution converges, stepping the
	// cluster after each burst (the first step elects its controller).
	deadline := time.Now().Add(30 * time.Second)
	for !cl.Controller().Status().Converged && time.Now().Before(deadline) && ctx.Err() == nil {
		for _, c := range clients {
			if _, err := c.Flood(border.Addr(), 30, 8); err != nil {
				return err
			}
		}
		time.Sleep(20 * time.Millisecond)
		if _, err := cl.Step(false); err != nil {
			return err
		}
	}

	// Graceful shutdown: stop the producer side, then fold the final
	// round under the same MinRoundPackets gate, deploying nothing.
	hp.SetTap(nil)
	if _, err := cl.Step(true); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// 1. Localize: every attacker must be a candidate.
	st := cl.Controller().Status()
	fmt.Fprintf(w, "\nprocessed %d spoofed packets over %d rounds, %d online reconfigurations\n",
		cl.TotalEvents(), st.Rounds, len(st.DeployedConfigs)-1)
	cands := cl.Controller().Evaluator().Candidates()
	fmt.Fprintf(w, "after %d deployed configurations, %d of %d sources remain candidates:\n",
		len(st.DeployedConfigs), len(cands), camp.NumSources())
	isAttacker := map[int]bool{}
	for _, k := range attackers {
		isAttacker[k] = true
	}
	hits := 0
	for _, k := range cands {
		marker := ""
		if isAttacker[k] {
			marker = "  <-- true attacker"
			hits++
		}
		fmt.Fprintf(w, "  AS%d%s\n", tracker.SourceASNs()[k], marker)
	}
	fmt.Fprintf(w, "true attackers among candidates: %d of %d\n", hits, numAttackers)
	if hits < numAttackers {
		return fmt.Errorf("true attackers among candidates: %d of %d", hits, numAttackers)
	}

	// 2. Explain: export the ledger, explain each attacker's cluster and
	// replay every verdict from the record alone.
	if err := explain(w, led.Export(), attackers, ledgerPath, dotPath); err != nil {
		return err
	}

	// 3. Mitigate: drop rules for the candidates' prefixes, scoped to the
	// amplification service, round-tripped through the wire format the
	// border routers would receive.
	var candidateIdx []int
	for _, k := range cands {
		candidateIdx = append(candidateIdx, camp.Sources[k])
	}
	rules := flowspec.DropRulesForSources(tracker.World.Space, candidateIdx, protect, 17, memcachedPort)
	wire, err := flowspec.MarshalRules(rules)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndisseminating %d flowspec rules (%d bytes on the wire)\n", len(rules), len(wire))
	installed, err := flowspec.UnmarshalRules(wire)
	if err != nil {
		return err
	}
	table := flowspec.NewTable(installed)

	reached, err := floodAll(ctx, hp, border, clients, 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "before mitigation: %d of 100 attack packets reached the honeypot\n", reached)

	// Install the filter: match each packet's true source address (the
	// border sees which wire it came in on; here the attacker's AS maps
	// to its address space) against the flowspec table.
	space, graph := tracker.World.Space, tracker.World.Graph
	border.SetFilter(func(p *amp.Packet) bool {
		idx, ok := graph.Index(spooftrack.ASN(p.TrueSrcAS))
		if !ok {
			return false
		}
		return table.ShouldDrop(flowspec.Packet{
			Src:     space.HostAddr(idx, 0),
			Dst:     p.SpoofedSrc,
			Proto:   17,
			DstPort: memcachedPort,
		})
	})
	if reached, err = floodAll(ctx, hp, border, clients, 100); err != nil {
		return err
	}
	fmt.Fprintf(w, "after mitigation:  %d of 100 attack packets reached the honeypot (%d filtered)\n",
		reached, border.Filtered())
	if reached > 0 {
		return fmt.Errorf("%d of 100 attack packets got through the installed filter", reached)
	}
	return nil
}

// explain writes the ledger's timeline to ledgerPath and its graph to
// dotPath (either may be empty), reads the timeline back when it was
// written — the offline path an operator takes — and from that export
// explains each attacker's cluster and replays every verdict.
func explain(w io.Writer, export *provenance.Export, attackers []int, ledgerPath, dotPath string) error {
	fmt.Fprintf(w, "\nledger: %d events recorded\n", len(export.Events))
	if dotPath != "" {
		if err := writeTo(dotPath, export.WriteDOT); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote provenance graph to %s (render: dot -Tsvg %s)\n", dotPath, dotPath)
	}
	var err error
	if ledgerPath != "" {
		if err = writeTo(ledgerPath, export.WriteJSON); err != nil {
			return err
		}
		if export, err = readExport(ledgerPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote JSON timeline to %s and read back %d events\n", ledgerPath, len(export.Events))
	}

	var ex *provenance.Explanation
	for _, src := range attackers {
		if ex, err = export.Explain(attackerCluster(export, src)); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nexplaining cluster %d of the final verdict (round %d, %d clusters):\n",
			ex.Cluster, ex.Verdict.Round, ex.Verdict.Clusters)
		fmt.Fprintf(w, "  members: %d source(s), attacker source %d included\n", len(ex.Members), src)
		fmt.Fprintf(w, "  evidence: %d configuration chains, %d rounds, %d reconfigurations, %d probe verdicts, %d quarantine transitions\n",
			len(ex.Configs), len(ex.Rounds), len(ex.Reconfigs), len(ex.Probes), len(ex.Quarantines))
	}
	fmt.Fprintln(w, "\nthe decisions every cluster shares:")
	for _, rc := range ex.Reconfigs {
		fmt.Fprintf(w, "  round %d: chose configuration %d (%s) over %d candidates\n",
			rc.Round, rc.Chosen, rc.Reason, len(rc.Beaten))
	}

	// Re-run classification and localization purely from the ledger and
	// check the verdicts match byte for byte.
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

// attackerCluster returns the source's cluster id in the export's last
// verdict (0 when there is none).
func attackerCluster(e *provenance.Export, src int) int {
	for i := len(e.Events) - 1; i >= 0; i-- {
		if v := e.Events[i].Verdict; e.Events[i].Kind == provenance.KindVerdict && v != nil && src < len(v.Assign) {
			return int(v.Assign[src])
		}
	}
	return 0
}

// floodAll sends n attack packets, split evenly across the attackers,
// and returns how many reached the honeypot once each was delivered or
// filtered (or two seconds passed).
func floodAll(ctx context.Context, hp *amp.Honeypot, border *amp.Border, clients []*amp.Attacker, n int) (int64, error) {
	before, filteredBefore := totalPackets(hp), border.Filtered()
	for _, c := range clients {
		if _, err := c.Flood(border.Addr(), n/len(clients), 8); err != nil {
			return 0, err
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if totalPackets(hp)-before+border.Filtered()-filteredBefore >= int64(n) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return totalPackets(hp) - before, ctx.Err()
}

func totalPackets(hp *amp.Honeypot) int64 {
	total := int64(0)
	for _, s := range hp.VolumeByLink() {
		total += s.Packets
	}
	return total
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

// readExport parses the ledger timeline written to path.
func readExport(path string) (*provenance.Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return provenance.ParseExport(f)
}
