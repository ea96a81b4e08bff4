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
	watch watch.Config
	// probeInterval is the active SAV scan cadence (0 = probing off).
	probeInterval time.Duration
	// attackers is the number of built-in demo attackers.
	attackers int
	snapshot  struct {
		path  string
		every time.Duration
	}
}

// worldConfig sizes the offline phase: the world, the campaign over it
// and the faults injected into both.
type worldConfig struct {
	seed, faultSeed        uint64
	ases, poison           int
	topoFile, faultProfile string
	ledger                 bool
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
	fs.IntVar(&c.pipe.Workers, "workers", 0, "pipeline counter shards (0 = auto)")
	fs.IntVar(&c.pipe.Eval.SplitThreshold, "threshold", 1, "stop refining when the top cluster is this small")
	fs.Int64Var(&c.pipe.MinRoundPackets, "min-round", 60, "minimum packets before a round is evaluated")
	fs.DurationVar(&c.pipe.EvalInterval, "eval", 200*time.Millisecond, "round evaluation interval")
	fs.DurationVar(&c.pipe.Settle, "settle", 50*time.Millisecond, "settle window after a reconfiguration")
	fs.StringVar(&c.snapshot.path, "snapshot", "", "periodic campaign dataset snapshot path (empty = off)")
	fs.DurationVar(&c.snapshot.every, "snapshot-every", 30*time.Second, "snapshot interval")
	fs.IntVar(&c.attackers, "attackers", 1, "built-in demo attackers (0 = external traffic only)")
	fs.StringVar(&logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.DurationVar(&c.shutdownTimeout, "shutdown-timeout", 10*time.Second, "max time to drain the pipeline on shutdown")
	fs.BoolVar(&c.trace.Enabled, "trace", false, "enable structured tracing (serve the journal at /trace)")
	fs.StringVar(&c.watch.BundleDir, "bundle-dir", "spooftrackd-bundles", "diagnostic bundle directory (empty = no bundles on breach)")
	fs.StringVar(&c.world.faultProfile, "fault-profile", "", "fault-injection scenario ("+strings.Join(spooftrack.FaultProfileNames(), ", ")+"; empty = off)")
	fs.Uint64Var(&c.world.faultSeed, "fault-seed", 1, "deterministic fault-injection seed")
	fs.DurationVar(&c.probeInterval, "probe-interval", 2*time.Second, "active SAV probe scan interval (0 = probing off)")
	fs.BoolVar(&c.world.ledger, "ledger", true, "record the decision-provenance ledger (serve /explain)")
	fs.StringVar(&c.world.topoFile, "topo-file", "", "load the AS topology from a CAIDA-serialized file instead of generating one; processes sharing a file and -seed build identical worlds")
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
