// Command spooftrack runs the paper's experiments end-to-end on the
// simulated substrate and prints each table or figure's data.
//
// Usage:
//
//	spooftrack [flags] <experiment>...
//
// where experiment is one of: table1, fig3, fig4, fig5, fig6, fig7,
// fig8, fig9, fig10, headline, all, or one of the extension studies
// extpredict (catchment prediction accuracy), extpoison (targeted
// poisoning of large clusters), extspeed (localization wall-clock time),
// extcomm, extstale, extremediate, export (write the campaign dataset to
// stdout as JSON lines), and ablation (each design knob flipped on its
// own reduced world, seeds 100-104; the flags do not apply to it, and it
// builds no lab when run alone).
//
// Example:
//
//	spooftrack -seed 42 headline fig3 fig8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spooftrack/internal/core"
	"spooftrack/internal/experiments"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 42, "world seed (drives topology, policies, noise)")
		numASes    = flag.Int("ases", 0, "topology size (0 = default 4000)")
		probes     = flag.Int("probes", 0, "traceroute probe count (0 = default 1600)")
		collectors = flag.Int("collectors", 0, "BGP collector count (0 = default 250)")
		poisons    = flag.Int("poisons", 0, "poison-phase size (0 = paper's 347)")
		truth      = flag.Bool("truth", false, "bypass the measurement pipeline (use true catchments)")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: spooftrack [flags] <table1|fig3..fig10|headline|all|extpredict|extpoison|extspeed|extcomm|extstale|extremediate|export|ablation>...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, name := range []string{"table1", "headline", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
				want[name] = true
			}
			continue
		}
		want[a] = true
	}

	if want["ablation"] {
		delete(want, "ablation")
		res, err := experiments.Ablations()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spooftrack: ablation: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res)
		if len(want) == 0 {
			return
		}
	}

	params := experiments.LabParams{
		Seed:             *seed,
		NumASes:          *numASes,
		NumProbes:        *probes,
		NumCollectors:    *collectors,
		MaxPoisonTargets: *poisons,
		UseTruth:         *truth,
	}
	if !*quiet {
		params.Progress = func(done, total int) {
			if done%100 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "deployed %d/%d configurations\n", done, total)
			}
		}
		fmt.Fprintf(os.Stderr, "building world and deploying campaign (seed %d)...\n", *seed)
	}
	start := time.Now()
	lab, err := experiments.NewLab(params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spooftrack: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign ready in %.1fs (%d sources)\n\n",
			time.Since(start).Seconds(), lab.Campaign.NumSources())
	}

	var fig5 *experiments.Fig5Result
	getFig5 := func() *experiments.Fig5Result {
		if fig5 == nil {
			fig5 = experiments.Fig5(lab)
		}
		return fig5
	}

	for _, name := range []string{"table1", "headline", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "extpredict", "extpoison", "extspeed", "extcomm", "extstale", "extremediate", "export"} {
		if !want[name] {
			continue
		}
		delete(want, name)
		switch name {
		case "extpredict":
			res, err := experiments.ExtPrediction(lab)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spooftrack: extpredict: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(res)
		case "extpoison":
			res, err := experiments.ExtTargetedPoison(lab, 10)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spooftrack: extpoison: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(res)
		case "extspeed":
			fmt.Println(experiments.ExtSpeed(lab, 5.0, *seed))
		case "extcomm":
			res, err := experiments.ExtCommunities(lab)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spooftrack: extcomm: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(res)
		case "extstale":
			res, err := experiments.ExtStaleness(lab, 200, 0.05)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spooftrack: extstale: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(res)
		case "extremediate":
			res, err := experiments.ExtRemediation(lab, 0.5, 100, 10)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spooftrack: extremediate: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(res)
		case "export":
			if err := core.WriteDataset(os.Stdout, lab.Campaign.Dataset()); err != nil {
				fmt.Fprintf(os.Stderr, "spooftrack: export: %v\n", err)
				os.Exit(1)
			}
		case "table1":
			fmt.Println(experiments.Table1(lab))
		case "headline":
			fmt.Println(experiments.Headline(lab))
		case "fig3":
			fmt.Println(experiments.Fig3(lab))
		case "fig4":
			fmt.Println(experiments.Fig4(lab))
		case "fig5":
			fmt.Println(getFig5())
		case "fig6":
			fmt.Println(getFig5().Fig6String())
		case "fig7":
			fmt.Println(experiments.Fig7(lab))
		case "fig8":
			fmt.Println(experiments.Fig8(lab, experiments.DefaultFig8Params()))
		case "fig9":
			fmt.Println(experiments.Fig9(lab))
		case "fig10":
			fmt.Println(experiments.Fig10(lab, experiments.DefaultFig10Params()))
		}
	}
	for name := range want {
		fmt.Fprintf(os.Stderr, "spooftrack: unknown experiment %q\n", name)
		os.Exit(2)
	}
}
