// DDoS localization: the full pipeline at packet level, closed-loop. An
// AmpPot-style honeypot and a border router run over loopback UDP;
// spoofing attackers flood the honeypot while the streaming attribution
// pipeline consumes every packet through the honeypot's event tap,
// incrementally refines the localization, and deploys the next greedy
// configuration online (§V-C) by swapping the border's live catchment
// table — no precomputed deployment order, no manual round loop.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"time"

	"spooftrack"
	"spooftrack/internal/amp"
	"spooftrack/internal/stream"
)

const numAttackers = 2

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddos-localization:", err)
		os.Exit(1)
	}
}

// run floods the honeypot from numAttackers spoofing ASes until the live
// loop converges, and fails unless every attacker is among the
// candidates.
func run(ctx context.Context, w io.Writer) error {
	// Offline phase: measure catchments for the whole campaign before
	// any attack (UseTruth keeps the example fast).
	params := spooftrack.DefaultTrackerParams(11)
	tp := spooftrack.DefaultGenParams(11)
	tp.NumASes = 1000
	params.World.Topo = &tp
	params.World.MaxPoisonTargets = 20
	params.UseTruth = true
	params.Ctx = ctx
	fmt.Fprintln(w, "offline: deploying campaign and measuring catchments...")
	tracker, err := spooftrack.NewTracker(params)
	if err != nil {
		return err
	}
	camp := tracker.Campaign

	// Packet-level infrastructure on loopback.
	victim := netip.MustParseAddr("192.0.2.66")
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

	// Streaming attribution: the honeypot tap feeds the pipeline, and
	// the pipeline's Deploy callback reconfigures the border online.
	pipe, err := stream.New(stream.Attribution{
		Catchments: camp.Catchments,
		SourceASNs: tracker.SourceASNs(),
		NumLinks:   tracker.World.Platform.NumLinks(),
	}, stream.Config{
		EvalInterval:    50 * time.Millisecond,
		MinRoundPackets: 60,
		Settle:          10 * time.Millisecond,
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

	// Online phase: flood until the attribution converges — the
	// pipeline reconfigures the border by itself along the way.
	deadline := time.Now().Add(30 * time.Second)
	for !pipe.Converged() && time.Now().Before(deadline) && ctx.Err() == nil {
		for _, c := range clients {
			if _, err := c.Flood(border.Addr(), 30, 8); err != nil {
				return err
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Graceful shutdown: stop the producer side, then drain.
	hp.SetTap(nil)
	pipe.Close()
	if err := ctx.Err(); err != nil {
		return err
	}

	st := pipe.Status(5)
	fmt.Fprintf(w, "\nprocessed %d spoofed packets over %d rounds, %d online reconfigurations\n",
		st.TotalEvents, st.Rounds, st.Reconfigurations)
	cands := pipe.Candidates()
	fmt.Fprintf(w, "after %d deployed configurations, %d of %d sources remain candidates:\n",
		len(pipe.Deployed()), len(cands), camp.NumSources())
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
	return nil
}
