package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"spooftrack"
	"spooftrack/internal/shard"
	"spooftrack/internal/stream"
	"spooftrack/internal/trace"
	"spooftrack/internal/watch"
)

// config is the parsed command line, one struct per concern — the
// library's own where it has one, so nothing is translated twice.
type config struct {
	listen          string
	logger          *slog.Logger
	shutdownTimeout time.Duration
	world           worldConfig
	// pipe tunes the count and decide halves, wherever they run; run
	// closes its callbacks onto the rest of the daemon.
	pipe  stream.Config
	place placeConfig
	trace trace.Options
	// scrape is the metric-history cadence (0 = no history).
	scrape time.Duration
	watch  watch.Config
	slo    sloConfig
	probe  struct {
		interval time.Duration
		budget   int
	}
	demo     struct{ attackers, pps int }
	snapshot struct {
		path  string
		every time.Duration
	}
}

// worldConfig sizes the offline phase: the world, the campaign over it
// and the faults injected into both.
type worldConfig struct {
	seed, faultSeed                       uint64
	ases, poison, cacheCap, deployRetries int
	topoFile, topoWrite, faultProfile     string
	ledger                                bool
}

// placeConfig picks where the two halves run: at most one of shards,
// shardID and peerIDs (the parsed -controller spec) is set.
type placeConfig struct {
	shards       int
	shardID      string
	peerIDs      []string
	peers        *shard.HTTPTransport
	controllerID string
	leaseFile    string
}

// sloConfig is the watchdog rules' thresholds.
type sloConfig struct {
	flushLag, dropRate, cacheHit, shedRate float64
	probeCoverage, probeLoss               float64
	dropObjective, dropBurn                float64
}

// parseFlags parses the daemon's command line on its own FlagSet, so a
// bad invocation is an error the caller reports, not an exit in place.
func parseFlags(args []string, usage io.Writer) (config, error) {
	var c config
	var logLevel, peers string
	fs := flag.NewFlagSet("spooftrackd", flag.ContinueOnError)
	fs.SetOutput(usage)
	fs.StringVar(&c.listen, "listen", "127.0.0.1:8347", "HTTP status listen address")
	fs.Uint64Var(&c.world.seed, "seed", 42, "world seed")
	fs.IntVar(&c.world.ases, "ases", 1000, "synthetic topology size (ASes)")
	fs.IntVar(&c.world.poison, "poison", 20, "max poisoning-phase targets")
	fs.IntVar(&c.pipe.Workers, "workers", 0, "pipeline worker goroutines (0 = auto)")
	fs.IntVar(&c.pipe.SplitThreshold, "threshold", 1, "stop refining when the top cluster is this small")
	fs.Int64Var(&c.pipe.MinRoundPackets, "min-round", 60, "minimum packets before a round is evaluated")
	fs.DurationVar(&c.pipe.EvalInterval, "eval", 200*time.Millisecond, "round evaluation interval")
	fs.DurationVar(&c.pipe.Settle, "settle", 50*time.Millisecond, "settle window after a reconfiguration")
	fs.IntVar(&c.pipe.MaxOnlineConfigs, "max-configs", 0, "online reconfiguration budget (0 = unlimited)")
	fs.StringVar(&c.snapshot.path, "snapshot", "", "periodic campaign dataset snapshot path (empty = off)")
	fs.DurationVar(&c.snapshot.every, "snapshot-every", 30*time.Second, "snapshot interval")
	fs.IntVar(&c.demo.attackers, "attackers", 1, "built-in demo attackers (0 = external traffic only)")
	fs.IntVar(&c.demo.pps, "pps", 400, "demo attack packets per second per attacker")
	fs.StringVar(&logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.DurationVar(&c.shutdownTimeout, "shutdown-timeout", 10*time.Second, "max time to drain the pipeline on shutdown")
	fs.BoolVar(&c.trace.Enabled, "trace", false, "enable structured tracing (serve the journal at /trace)")
	fs.IntVar(&c.trace.JournalCap, "trace-journal", 16384, "trace journal capacity (spans)")
	fs.DurationVar(&c.watch.Interval, "watch-interval", 5*time.Second, "SLO watchdog evaluation interval")
	fs.StringVar(&c.watch.BundleDir, "bundle-dir", "spooftrackd-bundles", "diagnostic bundle directory (empty = no bundles on breach)")
	fs.Float64Var(&c.slo.flushLag, "slo-flush-lag", 2.0, "flush-lag p99 SLO in seconds")
	fs.Float64Var(&c.slo.dropRate, "slo-drop-rate", 100, "border drop-rate SLO in packets/second")
	fs.Float64Var(&c.slo.cacheHit, "slo-cache-hit", 0.10, "outcome-cache hit-rate floor (0..1)")
	fs.Float64Var(&c.slo.shedRate, "slo-shed-rate", 50, "pipeline shed-rate SLO in events/second")
	fs.StringVar(&c.world.faultProfile, "fault-profile", "", "fault-injection scenario ("+strings.Join(spooftrack.FaultProfileNames(), ", ")+"; empty = off)")
	fs.Uint64Var(&c.world.faultSeed, "fault-seed", 1, "deterministic fault-injection seed")
	fs.IntVar(&c.world.deployRetries, "deploy-retries", 4, "max deploy/measure attempts per configuration")
	fs.BoolVar(&c.pipe.Shed, "shed", false, "shed events when ingest queues overflow instead of applying backpressure")
	fs.DurationVar(&c.probe.interval, "probe-interval", 2*time.Second, "active SAV probe scan interval (0 = probing off)")
	fs.IntVar(&c.probe.budget, "probe-budget", 200, "probe targets visited per scan round (0 = all)")
	fs.Float64Var(&c.slo.probeCoverage, "slo-probe-coverage", 0.05, "probe-coverage SLO floor (0..1)")
	fs.Float64Var(&c.slo.probeLoss, "slo-probe-loss", 0.9, "probe loss-rate SLO ceiling (0..1)")
	fs.IntVar(&c.world.cacheCap, "outcome-cache-cap", 0, "outcome cache capacity in entries (0 = default, negative = unbounded)")
	fs.BoolVar(&c.world.ledger, "ledger", true, "record the decision-provenance ledger (serve /explain)")
	fs.DurationVar(&c.scrape, "scrape-interval", time.Second, "metric history scrape cadence (0 = history engine off: no /query, /dash, windowed or burn-rate SLOs)")
	fs.Float64Var(&c.slo.dropObjective, "slo-drop-objective", 0.99, "border delivery objective for the drop burn-rate SLO (0..1)")
	fs.Float64Var(&c.slo.dropBurn, "slo-drop-burn", 2.0, "drop burn-rate SLO threshold (error-budget multiples)")
	fs.StringVar(&c.world.topoFile, "topo-file", "", "load the AS topology from a CAIDA-serialized file instead of generating one; processes sharing a file and -seed build identical worlds")
	fs.StringVar(&c.world.topoWrite, "topo-write", "", "serialize the built topology to this file (CAIDA format, loadable with -topo-file) and continue")
	fs.IntVar(&c.place.shards, "shards", 0, "in-process sharded ingest: N intake shards plus lease-elected failover controllers (0 = single-node pipeline)")
	fs.StringVar(&c.place.shardID, "shard-id", "", "run as one ingest shard: an intake plus the /shard RPC surface, driven by an external -controller process")
	fs.StringVar(&peers, "controller", "", "run as the sharded-ingest controller for these shards: comma-separated id=http://host:port pairs")
	fs.StringVar(&c.place.controllerID, "controller-id", "", "controller identity for lease election (default ctrl-<pid>)")
	fs.StringVar(&c.place.leaseFile, "lease-file", "", "shared leadership lease file for controller failover (empty = in-memory lease, no cross-process failover)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	modes := 0
	for _, on := range []bool{c.place.shards > 0, c.place.shardID != "", peers != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return c, errors.New("-shards, -shard-id, and -controller are mutually exclusive")
	}
	var err error
	if c.logger, err = newLogger(logLevel); err != nil {
		return c, err
	}
	if peers != "" {
		if c.place.peerIDs, c.place.peers, err = parseShardPeers(peers); err != nil {
			return c, fmt.Errorf("bad -controller spec: %w", err)
		}
	}
	return c, nil
}
