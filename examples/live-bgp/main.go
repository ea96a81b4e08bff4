// Live BGP: drive the announcement side over real BGP sessions. The
// origin (AS47065) dials a TCP BGP session to a route-server collector
// and announces each configuration's paths as genuine UPDATE messages —
// prepending and poison sentinels included — then withdraws them before
// the next configuration, exactly the control-plane churn a PEERING
// experiment produces at its muxes. The collector's RIB is read back
// after each configuration to verify what the world would see.
package main

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"slices"
	"time"

	"spooftrack"
	"spooftrack/internal/bgpwire"
	"spooftrack/internal/measure"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "live-bgp:", err)
		os.Exit(1)
	}
}

// run announces and withdraws four configurations, and fails unless the
// collector's RIB converges on each announcement and each withdrawal.
func run(ctx context.Context, w io.Writer) error {
	// A small world provides the configurations to announce.
	p := spooftrack.DefaultWorldParams(55)
	tp := spooftrack.DefaultGenParams(55)
	tp.NumASes = 600
	p.Topo = &tp
	world, err := spooftrack.BuildWorld(p)
	if err != nil {
		return err
	}
	plan, err := world.DefaultPlan()
	if err != nil {
		return err
	}
	plan = plan[:4]

	// The collector side: a route server on loopback.
	rs, err := bgpwire.NewRouteServer("127.0.0.1:0", bgpwire.SessionConfig{
		LocalAS: 65000, BGPID: 0x7f000001, HoldTime: 9 * time.Second,
	})
	if err != nil {
		return err
	}
	defer rs.Close()
	fmt.Fprintf(w, "collector route server on %v\n", rs.Addr())

	// The origin side: one session, like a PEERING mux's BGP speaker.
	sess, err := bgpwire.Dial(rs.Addr().String(), bgpwire.SessionConfig{
		LocalAS: spooftrack.PEERINGASN, BGPID: 47065, HoldTime: 9 * time.Second,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Fprintf(w, "origin session established: state=%v peer=AS%d hold=%v\n\n",
		sess.State(), sess.PeerAS(), sess.HoldTime())

	prefix := measure.AnnouncedPrefix
	nextHop := netip.MustParseAddr("203.0.113.1")
	for i, pc := range plan {
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(w, "canceled; withdrawing and closing the session")
			return err
		}
		fmt.Fprintf(w, "configuration %d (%s): %v\n", i+1, pc.Phase, pc.Config)
		var last []spooftrack.ASN
		for _, a := range pc.Config.Anns {
			last = a.InitialPath(spooftrack.PEERINGASN)
			u := &bgpwire.Update{Path: last, NextHop: nextHop, Prefixes: []netip.Prefix{prefix}}
			if err := sess.Announce(u); err != nil {
				return err
			}
		}
		// Wait for the collector RIB to converge on this config.
		if err := waitRIB(rs, prefix, last); err != nil {
			return err
		}
		fmt.Fprintf(w, "  collector sees AS-path %v\n", last)

		// Withdraw before the next configuration.
		if err := sess.Announce(&bgpwire.Update{Withdrawn: []netip.Prefix{prefix}}); err != nil {
			return err
		}
		if err := waitRIB(rs, prefix, nil); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nall configurations announced and withdrawn over live BGP")
	return nil
}

// waitRIB waits up to three seconds for the collector's route to prefix
// to read want; nil means withdrawn. The session delivers UPDATEs in
// order, so the last announcement is the one the RIB settles on.
func waitRIB(rs *bgpwire.RouteServer, prefix netip.Prefix, want []spooftrack.ASN) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		got := rs.Routes(spooftrack.PEERINGASN)[prefix]
		if slices.Equal(got, want) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("collector RIB never converged: AS-path %v, want %v", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
