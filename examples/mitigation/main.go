// Mitigation: close the loop the paper's introduction sketches — use
// live localization output to drive automatic DoS mitigation via BGP
// flowspec (RFC 5575). An attacker floods the honeypot through the
// border router; the streaming attribution pipeline localizes the
// source online (reconfiguring the border's catchment table as it
// refines); flowspec drop rules are generated for the candidate
// networks, disseminated in wire format, and installed at the border.
// The attack volume collapses while legitimate traffic keeps flowing.
package main

import (
	"context"
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
	"spooftrack/internal/flowspec"
	"spooftrack/internal/stream"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mitigation:", err)
		os.Exit(1)
	}
}

// run localizes one attacker live, filters the candidates with flowspec
// rules, and fails unless the attacker is a candidate and no attack
// packet reaches the honeypot once the filter is installed.
func run(ctx context.Context, w io.Writer) error {
	// Offline: campaign and measured catchments.
	params := spooftrack.DefaultTrackerParams(21)
	tp := spooftrack.DefaultGenParams(21)
	tp.NumASes = 1000
	params.World.Topo = &tp
	params.World.MaxPoisonTargets = 20
	params.UseTruth = true
	params.Ctx = ctx
	fmt.Fprintln(w, "preparing: campaign + catchments...")
	tracker, err := spooftrack.NewTracker(params)
	if err != nil {
		return err
	}
	camp := tracker.Campaign

	// Packet level: honeypot + border on loopback.
	hp, err := amp.NewHoneypot("127.0.0.1:0", amp.DefaultHoneypotConfig())
	if err != nil {
		return err
	}
	defer hp.Close()
	border, err := amp.NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), camp.CatchmentTable(0))
	if err != nil {
		return err
	}
	defer border.Close()

	// The attack: one source AS spoofing toward the honeypot.
	rng := spooftrack.NewRNG(5)
	attackerIdx := rng.Intn(camp.NumSources())
	attackerASN := tracker.SourceASNs()[attackerIdx]
	fmt.Fprintf(w, "attacker: AS%d\n", attackerASN)
	victim := netip.MustParseAddr("198.51.100.200")
	attack, err := amp.NewAttacker(uint32(attackerASN), victim)
	if err != nil {
		return err
	}
	defer attack.Close()

	// Localize live: the honeypot tap streams every spoofed request
	// into the attribution pipeline, which reconfigures the border
	// online until the attacker's cluster cannot be refined further.
	pipe, err := stream.New(stream.Attribution{
		Catchments: camp.Catchments,
		SourceASNs: tracker.SourceASNs(),
		NumLinks:   tracker.World.Platform.NumLinks(),
	}, stream.Config{
		EvalInterval:    50 * time.Millisecond,
		MinRoundPackets: 40,
		Settle:          10 * time.Millisecond,
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			border.SetCatchments(table)
		},
	})
	if err != nil {
		return err
	}
	defer pipe.Close()
	hp.SetTap(func(ev amp.Event) { pipe.Ingest(ev) })
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
	candidates := pipe.Candidates()
	fmt.Fprintf(w, "localized to %d candidate network(s) after %d online reconfigurations\n",
		len(candidates), len(pipe.Deployed())-1)
	if !slices.Contains(candidates, attackerIdx) {
		return fmt.Errorf("attacker AS%d is not among the %d candidates", attackerASN, len(candidates))
	}

	// Generate flowspec drop rules for the candidates' prefixes,
	// protecting the honeypot prefix, scoped to the amplification
	// service (UDP/11211 as a memcached stand-in).
	protect := netip.MustParsePrefix("198.51.100.0/24")
	var candidateIdx []int
	for _, k := range candidates {
		candidateIdx = append(candidateIdx, camp.Sources[k])
	}
	rules := flowspec.DropRulesForSources(tracker.World.Space, candidateIdx, protect, 17, 11211)
	wire, err := flowspec.MarshalRules(rules)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "disseminating %d flowspec rules (%d bytes on the wire)\n", len(rules), len(wire))
	installed, err := flowspec.UnmarshalRules(wire)
	if err != nil {
		return err
	}
	table := flowspec.NewTable(installed)

	// flood sends n attack packets and returns how many reached the
	// honeypot once each was delivered or filtered (or two seconds passed).
	flood := func(n int) (int64, error) {
		before := totalPackets(hp)
		filteredBefore := border.Filtered()
		if _, err := attack.Flood(border.Addr(), n, 8); err != nil {
			return 0, err
		}
		floodDeadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(floodDeadline) && ctx.Err() == nil {
			if totalPackets(hp)-before+border.Filtered()-filteredBefore >= int64(n) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		return totalPackets(hp) - before, ctx.Err()
	}

	reached, err := flood(100)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nbefore mitigation: %d of 100 attack packets reached the honeypot\n", reached)

	// Install the filter: match each packet's true source address (the
	// border sees which wire it came in on; here the attacker's AS maps
	// to its address space) against the flowspec table.
	space := tracker.World.Space
	graph := tracker.World.Graph
	border.SetFilter(func(p *amp.Packet) bool {
		idx, ok := graph.Index(spooftrack.ASN(p.TrueSrcAS))
		if !ok {
			return false
		}
		return table.ShouldDrop(flowspec.Packet{
			Src:     space.HostAddr(idx, 0),
			Dst:     netip.MustParseAddr("198.51.100.1"),
			Proto:   17,
			DstPort: 11211,
		})
	})

	if reached, err = flood(100); err != nil {
		return err
	}
	fmt.Fprintf(w, "after mitigation:  %d of 100 attack packets reached the honeypot (%d filtered)\n",
		reached, border.Filtered())
	if reached > 0 {
		return fmt.Errorf("%d of 100 attack packets got through the installed filter", reached)
	}
	return nil
}

func totalPackets(hp *amp.Honeypot) int64 {
	total := int64(0)
	for _, s := range hp.VolumeByLink() {
		total += s.Packets
	}
	return total
}
