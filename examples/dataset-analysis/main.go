// Dataset analysis: the paper publishes its measurement dataset (§VI) so
// others can study BGP-steered catchment manipulation without weeks of
// announcements. This example runs the equivalent workflow: a campaign
// is exported to the JSON-lines dataset format, re-loaded as a fresh
// analysis input, and mined without touching the simulator — clustering,
// per-phase statistics, and a greedy schedule all come straight from the
// file.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"

	"spooftrack"
	"spooftrack/internal/cluster"
	"spooftrack/internal/core"
	"spooftrack/internal/sched"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dataset-analysis:", err)
		os.Exit(1)
	}
}

// run exports a campaign, mines the file, and fails unless the file
// alone reproduces the campaign's clustering.
func run(ctx context.Context, w io.Writer) error {
	// Producer side: run a campaign and export it.
	params := spooftrack.DefaultTrackerParams(33)
	params.Ctx = ctx
	tp := spooftrack.DefaultGenParams(33)
	tp.NumASes = 1000
	params.World.Topo = &tp
	params.World.MaxPoisonTargets = 30
	fmt.Fprintln(w, "producer: running campaign and exporting dataset...")
	tracker, err := spooftrack.NewTracker(params)
	if err != nil {
		return err
	}
	var file bytes.Buffer
	if err := core.WriteDataset(&file, tracker.Campaign.Dataset()); err != nil {
		return err
	}
	fmt.Fprintf(w, "producer: dataset is %d KiB for %d configurations x %d sources\n\n",
		file.Len()/1024, tracker.Campaign.NumConfigs(), tracker.Campaign.NumSources())

	// Consumer side: everything below uses only the file.
	ds, err := core.ReadDataset(&file)
	if err != nil {
		return err
	}
	matrix := ds.CatchmentMatrix()
	fmt.Fprintf(w, "consumer: loaded %d configurations over %d sources\n",
		len(ds.Configs), len(ds.Header.SourceASNs))

	// Per-phase clustering.
	part := cluster.New(len(ds.Header.SourceASNs))
	lastPhase := ""
	for i, cfg := range ds.Configs {
		if cfg.Phase != lastPhase && lastPhase != "" {
			m := part.Summarize()
			fmt.Fprintf(w, "  after %-11s phase: %4d clusters, mean %.2f ASes\n", lastPhase, m.NumClusters, m.MeanSize)
		}
		lastPhase = cfg.Phase
		part.Refine(matrix[i])
	}
	m := part.Summarize()
	fmt.Fprintf(w, "  after %-11s phase: %4d clusters, mean %.2f ASes (%.0f%% singletons)\n\n",
		lastPhase, m.NumClusters, m.MeanSize, m.SingletonFrac*100)
	if want := tracker.Summary().NumClusters; m.NumClusters != want {
		return fmt.Errorf("the dataset yields %d clusters, the campaign %d", m.NumClusters, want)
	}

	// Scheduling study straight from the file.
	greedy, order := sched.GreedyTrajectory(matrix, 10)
	fmt.Fprintf(w, "greedy schedule from the dataset: first pick is config %d (%s)\n",
		order[0], ds.Configs[order[0]].Phase)
	fmt.Fprintf(w, "mean cluster size after 10 greedy configs: %.2f ASes\n", greedy[len(greedy)-1])
	return nil
}
