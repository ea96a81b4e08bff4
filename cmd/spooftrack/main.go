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
// builds no paper-scale campaign when run alone). Results print in one fixed order
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

	"spooftrack"
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

// campaignExperiments is every experiment that reads the campaign, in
// print order; its first ten are what "all" names.
var campaignExperiments = []string{
	"table1", "headline", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"extpredict", "extpoison", "extspeed", "extcomm", "extstale", "extremediate", "export",
}

// options is one parsed invocation.
type options struct {
	seed                              uint64
	ases, probes, collectors, poisons int // 0 = the world's default
	truth, quiet, ablation            bool
	want                              map[string]bool // campaign experiments to print
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
	fs.Uint64Var(&o.seed, "seed", 42, "world seed (drives topology, policies, noise)")
	fs.IntVar(&o.ases, "ases", 0, "topology size (0 = default 4000)")
	fs.IntVar(&o.probes, "probes", 0, "traceroute probe count (0 = default 1600)")
	fs.IntVar(&o.collectors, "collectors", 0, "BGP collector count (0 = default 250)")
	fs.IntVar(&o.poisons, "poisons", 0, "poison-phase size (0 = paper's 347)")
	fs.BoolVar(&o.truth, "truth", false, "bypass the measurement pipeline (use true catchments)")
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
			for _, name := range campaignExperiments[:10] {
				o.want[name] = true
			}
		case a == "ablation":
			o.ablation = true
		case slices.Contains(campaignExperiments, a):
			o.want[a] = true
		default:
			return o, usageError{fmt.Errorf("unknown experiment %q", a)}
		}
	}
	return o, nil
}

// run parses args, builds the campaign the named experiments need, and
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

	params := spooftrack.DefaultTrackerParams(o.seed)
	if o.ases > 0 {
		tp := spooftrack.DefaultGenParams(o.seed)
		tp.NumASes = o.ases
		params.World.Topo = &tp
	}
	if o.probes > 0 {
		params.World.NumProbes = o.probes
	}
	if o.collectors > 0 {
		params.World.NumCollectors = o.collectors
	}
	if o.poisons > 0 {
		params.World.MaxPoisonTargets = o.poisons
	}
	params.UseTruth = o.truth
	if !o.quiet {
		params.Progress = func(done, total int) {
			if done%100 == 0 || done == total {
				fmt.Fprintf(stderr, "deployed %d/%d configurations\n", done, total)
			}
		}
		fmt.Fprintf(stderr, "building world and deploying campaign (seed %d)...\n", o.seed)
	}
	start := time.Now()
	tr, err := spooftrack.NewTracker(params)
	if err != nil {
		return err
	}
	camp := tr.Campaign
	if !o.quiet {
		fmt.Fprintf(stderr, "campaign ready in %.1fs (%d sources)\n\n",
			time.Since(start).Seconds(), camp.NumSources())
	}

	var fig5 *experiments.Fig5Result
	getFig5 := func() *experiments.Fig5Result {
		if fig5 == nil {
			fig5 = experiments.Fig5(camp)
		}
		return fig5
	}

	for _, name := range campaignExperiments {
		if !o.want[name] {
			continue
		}
		var res any
		var err error
		switch name {
		case "table1":
			res = experiments.Table1(camp)
		case "headline":
			res = experiments.Headline(camp)
		case "fig3":
			res = experiments.Fig3(camp)
		case "fig4":
			res = experiments.Fig4(camp)
		case "fig5":
			res = getFig5()
		case "fig6":
			res = getFig5().Fig6String()
		case "fig7":
			res = experiments.Fig7(camp)
		case "fig8":
			res = experiments.Fig8(camp)
		case "fig9":
			res, err = experiments.Fig9(camp)
		case "fig10":
			res = experiments.Fig10(camp)
		case "extpredict":
			res, err = experiments.ExtPrediction(camp)
		case "extpoison":
			res, err = experiments.ExtTargetedPoison(camp, 10)
		case "extspeed":
			res = experiments.ExtSpeed(camp, 5.0, o.seed)
		case "extcomm":
			res, err = experiments.ExtCommunities(camp)
		case "extstale":
			res, err = experiments.ExtStaleness(camp, 200, 0.05)
		case "extremediate":
			res, err = experiments.ExtRemediation(camp, 0.5, 100, 10)
		case "export":
			err = core.WriteDataset(stdout, camp.Dataset())
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
