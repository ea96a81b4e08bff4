// Quickstart: build a simulated world, deploy the paper's announcement
// campaign, and localize a single spoofing source — the common
// amplification-attack case — from per-link honeypot volumes.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"

	"spooftrack"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run deploys the campaign, localizes one attacker, and fails unless the
// attacker is among the candidates.
func run(ctx context.Context, w io.Writer) error {
	// A reduced-scale world keeps the quickstart fast; drop these
	// overrides for the paper-scale 4000-AS / 705-configuration setup.
	params := spooftrack.DefaultTrackerParams(42)
	params.Ctx = ctx
	tp := spooftrack.DefaultGenParams(42)
	tp.NumASes = 1200
	params.World.Topo = &tp
	params.World.NumProbes = 400
	params.World.NumCollectors = 100
	params.World.MaxPoisonTargets = 40

	fmt.Fprintln(w, "deploying announcement campaign (location, prepending, poisoning phases)...")
	tracker, err := spooftrack.NewTracker(params)
	if err != nil {
		return err
	}

	summary := tracker.Summary()
	fmt.Fprintf(w, "campaign: %d configurations over %d observed source ASes\n",
		tracker.Campaign.NumConfigs(), tracker.Campaign.NumSources())
	fmt.Fprintf(w, "clusters: %d (mean %.2f ASes, %.0f%% singletons)\n",
		summary.NumClusters, summary.MeanSize, summary.SingletonFrac*100)

	// An attacker starts spoofing from one AS. The honeypot measures
	// per-link volume under every configuration; correlating volumes
	// with catchments pins the source down.
	rng := spooftrack.NewRNG(7)
	placement := tracker.PlaceSingleSource(rng)
	volumes := tracker.SimulateAttack(placement)
	report, err := tracker.LocalizeAttack(volumes)
	if err != nil {
		return err
	}

	var trueASN spooftrack.ASN
	for k, wt := range placement.Weight {
		if wt > 0 {
			trueASN = tracker.SourceASNs()[k]
		}
	}
	fmt.Fprintf(w, "\nattacker placed in AS%d\n", trueASN)
	fmt.Fprintf(w, "localization narrowed %d sources down to %d candidate(s): ",
		tracker.Campaign.NumSources(), len(report.CandidateASNs))
	for i, asn := range report.CandidateASNs {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "AS%d", asn)
	}
	fmt.Fprintln(w)
	if !slices.Contains(report.CandidateASNs, trueASN) {
		return fmt.Errorf("attacker AS%d is not among the candidates", trueASN)
	}
	return nil
}
