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
// builds no lab when run alone). Results print in one fixed order
// (ablation, table1, headline, fig3-fig10, then the extension studies),
// whatever order they are named in; an unknown name is refused before
// any world is built.
//
// Example:
//
//	spooftrack -seed 42 headline fig3 fig8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"spooftrack/internal/core"
	"spooftrack/internal/experiments"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "spooftrack:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a bad invocation; main exits 2 on it, as flag does.
type usageError struct{ error }

// labExperiments is every lab experiment in print order; its first ten
// are what "all" names.
var labExperiments = []string{
	"table1", "headline", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"extpredict", "extpoison", "extspeed", "extcomm", "extstale", "extremediate", "export",
}

// options is one parsed invocation.
type options struct {
	lab      experiments.LabParams
	quiet    bool
	ablation bool
	want     map[string]bool // lab experiments to print
}

// parse reads the flags and experiment names. Every error it returns
// but flag.ErrHelp is a usageError.
func parse(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("spooftrack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: spooftrack [flags] <table1|fig3..fig10|headline|all|extpredict|extpoison|extspeed|extcomm|extstale|extremediate|export|ablation>...")
		fs.PrintDefaults()
	}
	fs.Uint64Var(&o.lab.Seed, "seed", 42, "world seed (drives topology, policies, noise)")
	fs.IntVar(&o.lab.NumASes, "ases", 0, "topology size (0 = default 4000)")
	fs.IntVar(&o.lab.NumProbes, "probes", 0, "traceroute probe count (0 = default 1600)")
	fs.IntVar(&o.lab.NumCollectors, "collectors", 0, "BGP collector count (0 = default 250)")
	fs.IntVar(&o.lab.MaxPoisonTargets, "poisons", 0, "poison-phase size (0 = paper's 347)")
	fs.BoolVar(&o.lab.UseTruth, "truth", false, "bypass the measurement pipeline (use true catchments)")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return o, err
		}
		return o, usageError{err}
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return o, usageError{errors.New("no experiment named")}
	}
	o.want = map[string]bool{}
	for _, a := range fs.Args() {
		switch {
		case a == "all":
			for _, name := range labExperiments[:10] {
				o.want[name] = true
			}
		case a == "ablation":
			o.ablation = true
		case slices.Contains(labExperiments, a):
			o.want[a] = true
		default:
			return o, usageError{fmt.Errorf("unknown experiment %q", a)}
		}
	}
	return o, nil
}

// run parses args, builds the lab the named experiments need, and
// prints each experiment's result to stdout; progress goes to stderr
// unless -q.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parse(args, stderr)
	if err != nil {
		return err
	}
	if o.ablation {
		res, err := experiments.Ablations()
		if err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
		fmt.Fprintln(stdout, res)
		if len(o.want) == 0 {
			return nil
		}
	}

	params := o.lab
	if !o.quiet {
		params.Progress = func(done, total int) {
			if done%100 == 0 || done == total {
				fmt.Fprintf(stderr, "deployed %d/%d configurations\n", done, total)
			}
		}
		fmt.Fprintf(stderr, "building world and deploying campaign (seed %d)...\n", params.Seed)
	}
	start := time.Now()
	lab, err := experiments.NewLab(params)
	if err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(stderr, "campaign ready in %.1fs (%d sources)\n\n",
			time.Since(start).Seconds(), lab.Campaign.NumSources())
	}

	var fig5 *experiments.Fig5Result
	getFig5 := func() *experiments.Fig5Result {
		if fig5 == nil {
			fig5 = experiments.Fig5(lab)
		}
		return fig5
	}

	for _, name := range labExperiments {
		if !o.want[name] {
			continue
		}
		var res any
		var err error
		switch name {
		case "table1":
			res = experiments.Table1(lab)
		case "headline":
			res = experiments.Headline(lab)
		case "fig3":
			res = experiments.Fig3(lab)
		case "fig4":
			res = experiments.Fig4(lab)
		case "fig5":
			res = getFig5()
		case "fig6":
			res = getFig5().Fig6String()
		case "fig7":
			res = experiments.Fig7(lab)
		case "fig8":
			res = experiments.Fig8(lab, experiments.DefaultFig8Params())
		case "fig9":
			res, err = experiments.Fig9(lab)
		case "fig10":
			res = experiments.Fig10(lab, experiments.DefaultFig10Params())
		case "extpredict":
			res, err = experiments.ExtPrediction(lab)
		case "extpoison":
			res, err = experiments.ExtTargetedPoison(lab, 10)
		case "extspeed":
			res = experiments.ExtSpeed(lab, 5.0, params.Seed)
		case "extcomm":
			res, err = experiments.ExtCommunities(lab)
		case "extstale":
			res, err = experiments.ExtStaleness(lab, 200, 0.05)
		case "extremediate":
			res, err = experiments.ExtRemediation(lab, 0.5, 100, 10)
		case "export":
			err = core.WriteDataset(stdout, lab.Campaign.Dataset())
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if res != nil {
			fmt.Fprintln(stdout, res)
		}
	}
	return nil
}
