// Command spooftrackd is the live attribution daemon: it runs the
// paper's closed loop as a long-lived service. On startup it performs
// the offline phase (build a world, deploy the announcement campaign,
// measure per-configuration catchments), then brings up the packet
// plane on loopback — an AmpPot-style honeypot behind a border router —
// and feeds every spoofed request through the streaming attribution
// pipeline. When the volume-ranked top cluster is still too coarse, the
// pipeline deploys the next greedy configuration online by swapping the
// border's catchment table.
//
// HTTP endpoints (on -listen):
//
//	/status       pipeline snapshot: clusters, per-link rates, top sources
//	/faults       fault-injection stats and per-link circuit-breaker health
//	/probe        active SAV probing: scan status, per-verdict counts, and the
//	              probe-vs-catchment channel audit (404 with -probe-interval 0)
//	/metrics      counters, gauges, histograms and labeled vectors; JSON by
//	              default, Prometheus text format via Accept: text/plain or
//	              ?format=prometheus
//	/query        range queries over the embedded metric history: raw
//	              samples, counter-reset-aware rate(), sum/max aggregation
//	              across vector children, quantile-over-time on histograms
//	              (404 with -scrape-interval 0)
//	/dash         self-contained live dashboard (inline JS sparklines
//	              polling /query; no external assets)
//	/evidence     operator-facing localization evidence for the candidates
//	/explain      decision-provenance: verdict list (JSON), full ledger
//	              timeline (?format=ledger) or DOT provenance graph
//	              (?format=dot); /explain/{cluster} renders the complete
//	              evidence chain behind one cluster of the final verdict,
//	              with an embedded deterministic-replay check
//	              (404 with -ledger=false)
//	/trace        span journal (?format=chrome for chrome://tracing, json for raw)
//	/debug/pprof/ standard Go profiling endpoints
//	/debug/bundle latest SLO-breach diagnostic bundle (404 until one fires)
//	/slo          watchdog rule states (value, threshold, breach streak)
//	/cluster      sharded-ingest state: leader, term, epoch, member states,
//	              deferred/discarded rounds (404 in single-node mode)
//	/shard/*      shard RPC surface: collect/apply/hello (-shard-id mode only)
//	/healthz      liveness probe (process up)
//	/readyz       readiness probe (pipeline running and no SLO in breach)
//
// With -attackers > 0 the daemon also runs built-in demo attackers that
// flood the border with spoofed requests, so a bare
//
//	spooftrackd
//
// demonstrates the full loop: attack traffic -> streaming attribution
// -> online reconfiguration -> convergence, observable via /status.
// Shut down with SIGINT/SIGTERM; the daemon drains the pipeline (bounded
// by -shutdown-timeout), writes a final snapshot, and logs the
// localization outcome.
//
// The ingest tier scales horizontally (internal/shard), in three
// mutually exclusive modes beyond the single-node default:
//
//	-shards N        one process runs N relay shards plus lease-elected
//	                 failover controllers (sharded semantics, single binary)
//	-shard-id ID     this process is one ingest shard: relay pipeline plus
//	                 the /shard RPC surface, driven by a -controller process
//	-controller ...  this process is the merge-and-decide controller for
//	                 the listed shard endpoints (no packet plane)
//
// Multi-process deployments must agree on one attribution matrix: give
// every process the same -seed and the same -topo-file (written with
// -topo-write or topo.WriteCAIDA), and share -lease-file across
// controller replicas so failover is fenced through one lease.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"spooftrack"
	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/metrics"
	"spooftrack/internal/peering"
	"spooftrack/internal/probe"
	"spooftrack/internal/provenance"
	"spooftrack/internal/sched"
	"spooftrack/internal/shard"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stream"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
	"spooftrack/internal/watch"
)

// degradedRecoveryWindow is how long the shed-drop counter must stay
// flat (per metric history) before the pipeline's degraded flag may
// clear.
const degradedRecoveryWindow = 30 * time.Second

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:8347", "HTTP status listen address")
		seed          = flag.Uint64("seed", 42, "world seed")
		ases          = flag.Int("ases", 1000, "synthetic topology size (ASes)")
		poison        = flag.Int("poison", 20, "max poisoning-phase targets")
		workers       = flag.Int("workers", 0, "pipeline worker goroutines (0 = auto)")
		threshold     = flag.Int("threshold", 1, "stop refining when the top cluster is this small")
		minRound      = flag.Int64("min-round", 60, "minimum packets before a round is evaluated")
		evalEvery     = flag.Duration("eval", 200*time.Millisecond, "round evaluation interval")
		settle        = flag.Duration("settle", 50*time.Millisecond, "settle window after a reconfiguration")
		maxConfigs    = flag.Int("max-configs", 0, "online reconfiguration budget (0 = unlimited)")
		snapshotPath  = flag.String("snapshot", "", "periodic campaign dataset snapshot path (empty = off)")
		snapshotEvery = flag.Duration("snapshot-every", 30*time.Second, "snapshot interval")
		nAttackers    = flag.Int("attackers", 1, "built-in demo attackers (0 = external traffic only)")
		pps           = flag.Int("pps", 400, "demo attack packets per second per attacker")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn, error")
		shutdownTO    = flag.Duration("shutdown-timeout", 10*time.Second, "max time to drain the pipeline on shutdown")
		traceOn       = flag.Bool("trace", false, "enable structured tracing (serve the journal at /trace)")
		traceJournal  = flag.Int("trace-journal", 16384, "trace journal capacity (spans)")
		watchEvery    = flag.Duration("watch-interval", 5*time.Second, "SLO watchdog evaluation interval")
		bundleDir     = flag.String("bundle-dir", "spooftrackd-bundles", "diagnostic bundle directory (empty = no bundles on breach)")
		lagSLO        = flag.Float64("slo-flush-lag", 2.0, "flush-lag p99 SLO in seconds")
		dropSLO       = flag.Float64("slo-drop-rate", 100, "border drop-rate SLO in packets/second")
		hitSLO        = flag.Float64("slo-cache-hit", 0.10, "outcome-cache hit-rate floor (0..1)")
		shedSLO       = flag.Float64("slo-shed-rate", 50, "pipeline shed-rate SLO in events/second")
		faultProfile  = flag.String("fault-profile", "", "fault-injection scenario (flaky-mux, slow-converge, feed-gap, tap-drop, probe-storm, chaos; empty = off)")
		faultSeed     = flag.Uint64("fault-seed", 1, "deterministic fault-injection seed")
		deployRetries = flag.Int("deploy-retries", 4, "max deploy/measure attempts per configuration")
		shed          = flag.Bool("shed", false, "shed events when ingest queues overflow instead of applying backpressure")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "active SAV probe scan interval (0 = probing off)")
		probeBudget   = flag.Int("probe-budget", 200, "probe targets visited per scan round (0 = all)")
		probeCovSLO   = flag.Float64("slo-probe-coverage", 0.05, "probe-coverage SLO floor (0..1)")
		probeLossSLO  = flag.Float64("slo-probe-loss", 0.9, "probe loss-rate SLO ceiling (0..1)")
		cacheCap      = flag.Int("outcome-cache-cap", 0, "outcome cache capacity in entries (0 = default, negative = unbounded)")
		ledgerOn      = flag.Bool("ledger", true, "record the decision-provenance ledger (serve /explain)")
		scrapeEvery   = flag.Duration("scrape-interval", time.Second, "metric history scrape cadence (0 = history engine off: no /query, /dash, windowed or burn-rate SLOs)")
		dropObjective = flag.Float64("slo-drop-objective", 0.99, "border delivery objective for the drop burn-rate SLO (0..1)")
		dropBurnSLO   = flag.Float64("slo-drop-burn", 2.0, "drop burn-rate SLO threshold (error-budget multiples)")
		topoFile      = flag.String("topo-file", "", "load the AS topology from a CAIDA-serialized file instead of generating one; processes sharing a file and -seed build identical worlds")
		topoWrite     = flag.String("topo-write", "", "serialize the built topology to this file (CAIDA format, loadable with -topo-file) and continue")
		numShards     = flag.Int("shards", 0, "in-process sharded ingest: N relay shards plus lease-elected failover controllers (0 = single-node pipeline)")
		shardID       = flag.String("shard-id", "", "run as one ingest shard: relay pipeline plus the /shard RPC surface, driven by an external -controller process")
		ctrlPeers     = flag.String("controller", "", "run as the sharded-ingest controller for these shards: comma-separated id=http://host:port pairs")
		ctrlID        = flag.String("controller-id", "", "controller identity for lease election (default ctrl-<pid>)")
		leaseFile     = flag.String("lease-file", "", "shared leadership lease file for controller failover (empty = in-memory lease, no cross-process failover)")
	)
	flag.Parse()
	modes := 0
	for _, on := range []bool{*numShards > 0, *shardID != "", *ctrlPeers != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "spooftrackd: -shards, -shard-id, and -controller are mutually exclusive")
		os.Exit(2)
	}

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spooftrackd:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// Tracing and metrics come up before the offline phase so campaign
	// deployment itself is captured. The OnEnd bridge feeds every span's
	// duration into a per-span-name histogram, making trace timings
	// visible on /metrics without exporting the journal.
	reg := metrics.NewRegistry()
	registerRuntimeGauges(reg)
	spanObs := metrics.SpanObserver(reg, "trace_span_")
	// Journal evictions are span loss: a span overwritten before anyone
	// exported it. Counted per span name so a hot path flooding the
	// journal is identifiable (and alertable) from /metrics.
	vEvicted := reg.CounterVec("trace_journal_evicted_total", "track")
	tracer := trace.New(trace.Options{
		Enabled:    *traceOn,
		JournalCap: *traceJournal,
		OnEnd:      func(rec trace.SpanRecord) { spanObs(rec.Name, rec.Duration.Seconds()) },
		OnEvict:    func(rec trace.SpanRecord) { vEvicted.With(rec.Name).Inc() },
	})
	trace.SetGlobal(tracer)

	// Embedded metric history: scrape the registry on a ticker into the
	// Gorilla-compressed tiered store. Everything history-backed — /query,
	// /dash, windowed SLO rates, burn-rate rules, breach-bundle context —
	// hangs off this handle; with -scrape-interval 0 it stays nil and the
	// daemon degrades to instantaneous two-frame semantics.
	var db *tsdb.DB
	if *scrapeEvery > 0 {
		db = tsdb.New(tsdb.Options{Registry: reg, Interval: *scrapeEvery})
		db.Start()
		defer db.Stop()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Offline phase: world + campaign + measured catchments. UseTruth
	// keeps startup interactive; a real deployment measures instead.
	params := spooftrack.DefaultTrackerParams(*seed)
	tp := spooftrack.DefaultGenParams(*seed)
	tp.NumASes = *ases
	params.World.Topo = &tp
	if *topoFile != "" {
		g, err := loadTopo(*topoFile)
		if err != nil {
			slog.Error("topology load failed", "path", *topoFile, "err", err)
			os.Exit(1)
		}
		params.World.Graph = g
		slog.Info("topology loaded from file (-ases ignored)", "path", *topoFile, "ases", g.NumASes())
	}
	params.World.MaxPoisonTargets = *poison
	params.World.OutcomeCacheCap = *cacheCap
	params.UseTruth = true
	params.Metrics = reg
	params.FaultProfile = *faultProfile
	params.FaultSeed = *faultSeed
	retry := spooftrack.DefaultRetryPolicy()
	retry.MaxAttempts = *deployRetries
	params.Retry = retry
	// Decision-provenance ledger: built before the tracker so the
	// offline campaign's deploys, retries, and degradations are on the
	// record from the first event. A nil ledger keeps every Record* site
	// a no-op (-ledger=false).
	var led *spooftrack.ProvenanceLedger
	if *ledgerOn {
		led = spooftrack.NewProvenanceLedger()
		led.Instrument(reg)
	}
	params.Ledger = led
	if *faultProfile != "" {
		slog.Info("fault injection enabled", "profile", *faultProfile, "seed", *faultSeed,
			"retries", *deployRetries)
	}
	slog.Info("offline: building world and measuring campaign catchments", "ases", *ases)
	tracker, err := spooftrack.NewTracker(params)
	if err != nil {
		slog.Error("startup failed", "err", err)
		os.Exit(1)
	}
	camp := tracker.Campaign
	platform := tracker.World.Platform
	slog.Info("offline phase complete",
		"configs", camp.NumConfigs(), "sources", camp.NumSources(), "links", platform.NumLinks())
	if *topoWrite != "" {
		if err := saveTopo(*topoWrite, tracker.World.Graph); err != nil {
			slog.Error("topology write failed", "path", *topoWrite, "err", err)
			os.Exit(1)
		}
		slog.Info("topology written", "path", *topoWrite)
	}
	if len(camp.Incomplete) > 0 {
		slog.Warn("campaign degraded: some configurations permanently failed; localization proceeds with coarser clusters",
			"incomplete", camp.Incomplete)
	}

	// Outcome-cache effectiveness, read on demand at /metrics scrapes.
	reg.GaugeFunc("bgp_outcome_cache_hits", func() float64 {
		h, _ := platform.CacheStats()
		return float64(h)
	})
	reg.GaugeFunc("bgp_outcome_cache_misses", func() float64 {
		_, m := platform.CacheStats()
		return float64(m)
	})
	reg.GaugeFunc("bgp_outcome_cache_size", func() float64 {
		return float64(platform.CacheSize())
	})
	// Labeled family (bgp_outcome_cache_requests_total{result}) counted at
	// the cache itself; the watchdog's hit-rate floor reads it.
	platform.InstrumentCache(reg)

	// The attribution contract every deployment mode shares: the same
	// catchment matrix drives the single-node pipeline, the in-process
	// cluster, a relay shard, and an external controller.
	attr := stream.Attribution{
		Catchments: camp.Catchments,
		SourceASNs: tracker.SourceASNs(),
		NumLinks:   platform.NumLinks(),
	}

	// Controller mode runs no packet plane: it is the merge-and-decide
	// tier for an external set of shard processes.
	if *ctrlPeers != "" {
		runController(ctx, controllerArgs{
			listen:    *listen,
			id:        *ctrlID,
			peers:     *ctrlPeers,
			leaseFile: *leaseFile,
			attr:      attr,
			eval:      stream.EvalParams{SplitThreshold: *threshold, MaxOnlineConfigs: *maxConfigs},
			minRound:  *minRound,
			interval:  *evalEvery,
			tracker:   tracker,
			reg:       reg,
			tracer:    tracer,
			led:       led,
			db:        db,
		})
		return
	}

	// Packet plane on loopback: honeypot behind a border router.
	hp, err := amp.NewHoneypot("127.0.0.1:0", amp.DefaultHoneypotConfig())
	if err != nil {
		slog.Error("honeypot failed", "err", err)
		os.Exit(1)
	}
	defer hp.Close()
	hp.SetMetrics(reg)
	border, err := amp.NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), nil)
	if err != nil {
		slog.Error("border failed", "err", err)
		os.Exit(1)
	}
	defer border.Close()
	border.SetMetrics(reg)

	// Re-measurement hints: the probe scan loop publishes the source
	// positions where the probe channel's measured ingress conflicts
	// with the campaign catchment, and the stream controller spends
	// spare reconfiguration budget re-measuring the configuration that
	// covers the most of them.
	var remeasureHints atomic.Pointer[[]int]

	// Per-evaluation callbacks every mode's decision loop consults.
	// Configurations whose links are quarantined by the circuit breaker
	// are routed around until the breaker cools down.
	blockedFn := func() []bool {
		return sched.QuarantineMask(tracker.Plan, platform.Health().IsQuarantined)
	}
	remeasureFn := func() []int {
		if p := remeasureHints.Load(); p != nil {
			return *p
		}
		return nil
	}
	// History-aware recovery: the degraded flag clears only after a
	// full recovery window with zero shed drops, not merely one quiet
	// controller tick — a flapping overload holds the flag instead of
	// strobing /readyz. Without history the controller's own
	// drained-and-quiet check stands alone.
	degradedRecovery := func() bool {
		if db == nil {
			return true
		}
		now := time.Now()
		delta, _, ok := db.Increase("stream_dropped_total", "", now.Add(-degradedRecoveryWindow), now)
		return !ok || delta == 0
	}
	deployFn := func(cfgIdx int, table map[uint32]uint8) {
		border.SetCatchments(table)
		slog.Info("deploy", "config", cfgIdx, "routed_sources", len(table))
	}

	// Streaming attribution, closed onto the border: deploying a
	// configuration means swapping the live catchment table. The same
	// stream.Config drives all three ingest shapes.
	pipeCfg := stream.Config{
		Workers:          *workers,
		EvalInterval:     *evalEvery,
		SplitThreshold:   *threshold,
		MinRoundPackets:  *minRound,
		MaxOnlineConfigs: *maxConfigs,
		Settle:           *settle,
		Metrics:          reg,
		Shed:             *shed,
		DegradedRecovery: degradedRecovery,
		Blocked:          blockedFn,
		Remeasure:        remeasureFn,
		Ledger:           led,
		Deploy:           deployFn,
	}
	var (
		pipe *stream.Pipeline
		node *shard.Node
		cl   *shard.Cluster
		dog  *watch.Watchdog
	)
	switch {
	case *shardID != "":
		// Relay shard: the same pipeline, folded remotely. The external
		// controller owns evaluation and provenance; this process
		// accumulates counters, serves /shard/*, and deploys whatever
		// epoch updates arrive.
		nodeCfg := pipeCfg
		nodeCfg.Ledger = nil
		node, err = shard.NewNode(shard.NodeConfig{
			ID:   *shardID,
			Attr: attr,
			Pipe: nodeCfg,
			// The membership gate the controller polls on every collect:
			// an SLO breach or shed-degradation asks to be drained.
			Ready: func() bool {
				if dog != nil && !dog.Healthy() {
					return false
				}
				return !node.Pipeline().Degraded()
			},
		})
		if err != nil {
			slog.Error("shard node failed", "err", err)
			os.Exit(1)
		}
		pipe = node.Pipeline()
		slog.Info("running as ingest shard", "id", *shardID)
	case *numShards > 0:
		// In-process sharded ingest: relay shards plus failover
		// controllers in one binary — sharded semantics (epochs, terms,
		// drain/evict, provable coarsening) without the fleet.
		cl, err = shard.NewCluster(shard.ClusterConfig{
			Shards:          *numShards,
			Attr:            attr,
			Eval:            stream.EvalParams{SplitThreshold: *threshold, MaxOnlineConfigs: *maxConfigs},
			MinRoundPackets: *minRound,
			Pipe: stream.Config{
				Workers:          *workers,
				Settle:           *settle,
				Metrics:          reg,
				Shed:             *shed,
				DegradedRecovery: degradedRecovery,
				Deploy:           deployFn,
			},
			Injector:  tracker.Fault,
			Blocked:   blockedFn,
			Remeasure: remeasureFn,
			Ledger:    led,
			Metrics:   reg,
		})
		if err != nil {
			slog.Error("cluster failed", "err", err)
			os.Exit(1)
		}
		slog.Info("in-process sharded ingest", "shards", *numShards)
	default:
		pipe, err = stream.New(attr, pipeCfg)
		if err != nil {
			slog.Error("pipeline failed", "err", err)
			os.Exit(1)
		}
	}
	if pipe != nil {
		// The shed/degraded flag as a gauge, so the dashboard and /query
		// see its history (when it flapped, for how long), not just the
		// current boolean on /readyz.
		reg.GaugeFunc("stream_degraded", func() float64 {
			if pipe.Degraded() {
				return 1
			}
			return 0
		})
	}

	var tap amp.Tap
	switch {
	case cl != nil:
		tap = func(ev amp.Event) { cl.Ingest(ev) }
	case node != nil:
		tap = func(ev amp.Event) { node.Ingest(ev) }
	default:
		tap = func(ev amp.Event) { pipe.Ingest(ev) }
	}
	if tracker.Fault != nil && cl == nil {
		// Event-tap drops ride the same injector: the pipeline sees a
		// lossy feed, exercising the degradation path end to end. The
		// cluster rolls the same fault inside Ingest (keeping the drop
		// schedule identical at every shard count), so wrapping its tap
		// too would double-roll it.
		tap = tracker.Fault.WrapTap(tap)
	}
	hp.SetTap(tap)

	// Active probing: the second evidence channel. The prober scans the
	// same converged topology the campaign runs on, sending
	// control/inbound/outbound probes at each target AS and folding the
	// answers into per-AS SAV verdicts with honest confidences. Losses
	// ride the same fault injector as the rest of the daemon, and probe
	// scheduling respects the circuit breaker's link quarantines.
	var pv *probeView
	if *probeInterval > 0 {
		anns := make([]bgp.Announcement, platform.NumLinks())
		for i := range anns {
			anns[i] = bgp.Announcement{Link: bgp.LinkID(i)}
		}
		out, err := platform.Propagate(bgp.Config{Anns: anns})
		if err != nil {
			slog.Error("probe baseline propagation failed", "err", err)
			os.Exit(1)
		}
		// The simulated target fleet: seeded SAV ground truth the
		// inference is later judged against (a real deployment probes the
		// actual networks instead).
		truth := probe.RandomGroundTruth(out.Graph().NumASes(), 0.4, 0.5, *seed)
		simnet, err := probe.NewSimNet(out, truth, 0, *seed)
		if err != nil {
			slog.Error("probe network failed", "err", err)
			os.Exit(1)
		}
		pcfg := probe.Config{
			Net:         simnet,
			TargetLinks: out.CatchmentVector(),
			LinkNames:   platform.LinkNames(),
			Budget:      *probeBudget,
			Quarantined: platform.Health().IsQuarantined,
			Tracer:      tracer,
		}
		if tracker.Fault != nil {
			pcfg.Fault = tracker.Fault
		}
		prober, err := probe.NewProber(pcfg)
		if err != nil {
			slog.Error("prober failed", "err", err)
			os.Exit(1)
		}
		prober.Instrument(reg)
		pv = &probeView{prober: prober, catchment: out.CatchmentVector()}
		slog.Info("active SAV probing enabled",
			"targets", prober.NumTargets(), "budget", *probeBudget, "interval", *probeInterval)
	}

	// SLO watchdog: flight-record registry snapshots and drop a diagnostic
	// bundle when the live loop degrades past its objectives.
	dog = watch.New(watch.Config{
		Registry:  reg,
		Interval:  *watchEvery,
		Tracer:    tracer,
		BundleDir: *bundleDir,
		OnBreach:  nil,
		// History-backed evaluation: rate rules average over their Window
		// instead of two adjacent ticks, burn-rate rules compare error
		// budget consumption across fast and slow windows, and breach
		// bundles embed the metric history leading into the breach.
		DB: db,
		BundleHistory: []string{
			"stream_events_total",
			"stream_dropped_total",
			"stream_flush_lag_seconds",
			"amp_border_packets_total",
			"bgp_outcome_cache_requests_total",
		},
		Rules: []watch.Rule{
			{
				Name:      "stream-flush-lag-p99",
				Expr:      watch.Quantile("stream_flush_lag_seconds", 0.99),
				Op:        watch.Above,
				Threshold: *lagSLO,
				For:       3,
			},
			{
				Name:      "border-drop-rate",
				Expr:      watch.Series("amp_border_packets_total", "outcome=dropped"),
				Rate:      true,
				Window:    time.Minute,
				Op:        watch.Above,
				Threshold: *dropSLO,
				For:       3,
			},
			// Multi-window burn rate on border delivery: fires only when
			// the drop fraction consumes the error budget (1−objective)
			// faster than the threshold over BOTH windows — the fast one
			// says the budget is burning now, the slow one proves it is
			// not a blip. Complements the absolute drop-rate rule above:
			// at low traffic a fixed pps threshold stays silent while the
			// drop *fraction* can be catastrophic.
			{
				Name:      "border-drop-burn",
				ErrorExpr: watch.Series("amp_border_packets_total", "outcome=dropped"),
				TotalExpr: watch.VecSum("amp_border_packets_total"),
				Objective: *dropObjective,
				Windows:   []time.Duration{5 * time.Minute, time.Hour},
				Op:        watch.Above,
				Threshold: *dropBurnSLO,
				For:       3,
			},
			{
				Name:      "stream-shed-rate",
				Expr:      watch.Metric("stream_dropped_total"),
				Rate:      true,
				Window:    time.Minute,
				Op:        watch.Above,
				Threshold: *shedSLO,
				For:       3,
			},
			{
				Name: "outcome-cache-hit-rate",
				Expr: watch.Ratio(
					watch.Series("bgp_outcome_cache_requests_total", "result=hit"),
					watch.Sum(
						watch.Series("bgp_outcome_cache_requests_total", "result=hit"),
						watch.Series("bgp_outcome_cache_requests_total", "result=miss"),
					),
				),
				Op:        watch.Below,
				Threshold: *hitSLO,
				For:       3,
			},
			// Probe-channel health. Both rules read metrics the prober
			// registers only when probing is on, so with -probe-interval 0
			// they sit in the no-data state and never fire.
			{
				Name:      "probe-coverage",
				Expr:      watch.Metric("probe_coverage"),
				Op:        watch.Below,
				Threshold: *probeCovSLO,
				For:       3,
			},
			{
				Name: "probe-loss-rate",
				Expr: watch.Ratio(
					watch.VecSum("probe_lost_total"),
					watch.VecSum("probe_sent_total"),
				),
				Op:        watch.Above,
				Threshold: *probeLossSLO,
				For:       3,
			},
		},
	})
	dog.Start()
	defer dog.Stop()

	// The cluster's merge loop: one controller round per tick (election
	// included — the first tick elects, and a crashed controller's
	// standby takes over on lease expiry).
	if cl != nil {
		go func() {
			t := time.NewTicker(*evalEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if _, err := cl.Step(false); err != nil {
						slog.Warn("cluster round failed", "err", err)
					}
				}
			}
		}()
	}

	var cv *clusterView
	if cl != nil {
		cv = &clusterView{
			status:  func() shard.ClusterStatus { return cl.Controller().Status() },
			dropped: cl.Dropped,
		}
	}
	mux := newMux(pipe, reg, tracer, dog, tracker.Fault, platform.Health(), pv, led, db, cv)
	if node != nil {
		mux.Handle("/shard/", shard.NodeHandler(node))
	}
	stopHTTP := serveHTTP(*listen, mux,
		"/status /faults /probe /metrics /query /dash /evidence /explain /trace /slo /cluster /debug/pprof/ /debug/bundle /healthz /readyz")
	slog.Info("packet plane up: point spoofed traffic at the border",
		"honeypot", hp.Addr().String(), "border", border.Addr().String())

	// Periodic dataset snapshot of the configurations deployed so far.
	deployedFn := func() []int {
		if cl != nil {
			return cl.Controller().Status().DeployedConfigs
		}
		return pipe.Deployed()
	}
	var snapWG chan struct{}
	if *snapshotPath != "" {
		snapWG = make(chan struct{})
		go func() {
			defer close(snapWG)
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := writeSnapshot(*snapshotPath, camp, deployedFn()); err != nil {
						slog.Warn("snapshot failed", "err", err)
					}
				}
			}
		}()
	}

	// Probe scan loop: one budget-bounded round per interval, rotating
	// fairly through the target fleet. After each round the loop promotes
	// newly confident verdicts into the provenance ledger and publishes
	// the probe-vs-catchment conflict set as re-measurement hints for the
	// stream controller.
	if pv != nil {
		srcOf := make(map[int]int, camp.NumSources())
		for k, as := range camp.Sources {
			srcOf[as] = k
		}
		go func() {
			t := time.NewTicker(*probeInterval)
			defer t.Stop()
			lastSignal := make(map[int]spoof.SAVSignal)
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					rep := pv.prober.Round(nil)
					pv.prober.Inference(func(inf *probe.SAVInference) {
						pc := probe.BuildChannel(inf, 0)
						if led.Enabled() {
							for as, sig := range pc.Signal {
								if sig == spoof.SAVNoData || lastSignal[as] == sig {
									continue
								}
								lastSignal[as] = sig
								src, ok := srcOf[as]
								if !ok {
									src = -1
								}
								led.RecordProbe(provenance.ProbeEvent{
									AS:         as,
									Source:     src,
									Link:       int(pc.Link[as]),
									Signal:     sig.String(),
									Confidence: inf.Report(as).OutConfidence,
									Round:      int(rep.Round),
								})
							}
						}
						audit := probe.Audit(pc, pv.catchment)
						hints := make([]int, 0, len(audit.ConflictASes))
						for _, as := range audit.ConflictASes {
							if src, ok := srcOf[as]; ok {
								hints = append(hints, src)
							}
						}
						remeasureHints.Store(&hints)
					})
					slog.Debug("probe round",
						"round", rep.Round, "visited", rep.Visited, "skipped", rep.Skipped,
						"sent", rep.Sent, "lost", rep.Lost, "answered", rep.Answered,
						"discarded", rep.Discarded, "took", rep.Duration.Round(time.Microsecond))
				}
			}
		}()
	}

	// Demo traffic: spoofing attackers flooding the border until the
	// daemon shuts down.
	attackers := startAttackers(ctx, tracker, border.Addr(), *nAttackers, *pps)

	<-ctx.Done()
	slog.Info("shutting down: draining pipeline", "timeout", *shutdownTO)

	// Graceful order: stop producers, detach the tap, then drain the
	// pipeline so every accepted event is folded before reporting. The
	// drain is bounded: if it exceeds -shutdown-timeout (e.g. a wedged
	// consumer), the daemon reports the failure and exits anyway rather
	// than hanging the supervisor.
	drainStart := time.Now()
	drained := make(chan struct{})
	go func() {
		<-attackers
		hp.SetTap(nil)
		switch {
		case cl != nil:
			// Sharded drain: wait for every shard to flush its routed
			// events, fold the final merged round, then stop.
			if err := cl.Quiesce(*shutdownTO / 2); err != nil {
				slog.Warn("cluster quiesce incomplete", "err", err)
			}
			if _, err := cl.Step(true); err != nil {
				slog.Warn("final cluster round failed", "err", err)
			}
			cl.Close()
		case node != nil:
			node.Close()
		default:
			pipe.Close()
		}
		close(drained)
	}()
	select {
	case <-drained:
		slog.Info("pipeline drained", "took", time.Since(drainStart).Round(time.Millisecond))
	case <-time.After(*shutdownTO):
		slog.Warn("pipeline drain timed out; exiting with events unflushed", "timeout", *shutdownTO)
	}

	if *snapshotPath != "" {
		<-snapWG
		if err := writeSnapshot(*snapshotPath, camp, deployedFn()); err != nil {
			slog.Warn("final snapshot failed", "err", err)
		} else {
			slog.Info("final snapshot written", "path", *snapshotPath)
		}
	}

	defer stopHTTP()
	if cl != nil {
		logClusterState(cl.Controller().Status())
	}
	if pipe == nil {
		return
	}
	st := pipe.Status(5)
	slog.Info("final state", "events", st.TotalEvents, "rounds", st.Rounds,
		"reconfigs", st.Reconfigurations, "converged", st.Converged)
	if rep, err := pipe.Evidence(); err == nil && st.Rounds > 0 {
		const maxPrint = 10
		for i, c := range rep.Candidates {
			if i == maxPrint {
				slog.Info("more candidates elided; see /evidence", "remaining", len(rep.Candidates)-maxPrint)
				break
			}
			slog.Info("candidate", "asn", c.ASN, "mean_volume_share", c.MeanVolumeShare,
				"configs_with_traffic", c.ConfigsWithTraffic, "configs_observed", c.ConfigsObserved,
				"cluster_size", c.ClusterSize)
		}
	}
}

// serveHTTP starts the daemon's HTTP server — every mode has exactly
// one — and returns the function that shuts it down gracefully and
// reports how serving ended.
func serveHTTP(addr string, h http.Handler, endpoints string) (stop func()) {
	srv := &http.Server{Addr: addr, Handler: h}
	httpErr := make(chan error, 1)
	go func() {
		slog.Info("http listening", "addr", addr, "endpoints", endpoints)
		httpErr <- srv.ListenAndServe()
	}()
	return func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		if err := <-httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Warn("http server error", "err", err)
		}
	}
}

// logClusterState is the sharded modes' shutdown summary.
func logClusterState(cs shard.ClusterStatus) {
	slog.Info("final cluster state", "leader", cs.Leader, "term", cs.Term,
		"epoch", cs.Epoch, "rounds", cs.Rounds, "deferred", cs.DeferredRounds,
		"discarded", cs.DiscardedRounds, "degraded", cs.Degraded,
		"converged", cs.Converged, "clusters", cs.NumClusters, "candidates", cs.Candidates)
}

// newLogger builds the daemon's slog logger at the requested level.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// faultsStatus is the /faults payload: injector stats (profile "none"
// when no fault profile is active), per-link circuit-breaker health, and
// the pipeline's degradation state.
type faultsStatus struct {
	Profile       string                   `json:"profile"`
	Seed          uint64                   `json:"seed,omitempty"`
	Injected      map[string]int64         `json:"injected,omitempty"`
	Links         []peering.LinkHealthStat `json:"links,omitempty"`
	Quarantined   []spooftrack.LinkID      `json:"quarantined,omitempty"`
	Degraded      bool                     `json:"degraded"`
	DroppedEvents int64                    `json:"dropped_events"`
}

// probeView bundles what /probe serves: the live prober and the
// propagation-derived catchment vector its channel audit is compared
// against.
type probeView struct {
	prober    *probe.Prober
	catchment []bgp.LinkID
}

// probeStatus is the /probe payload: the prober's scan status plus the
// agreement/conflict audit between the probe channel's measured ingress
// links and the propagation-derived catchment vector.
type probeStatus struct {
	probe.Status
	Audit probe.ChannelAudit `json:"audit"`
}

// clusterView is what /cluster serves in the sharded modes: the
// (in-process or external-controller) cluster status, and the cluster's
// own drop counter for /faults. Nil in single-node and shard-node
// modes without a local controller.
type clusterView struct {
	status  func() shard.ClusterStatus
	dropped func() int64
}

// newMux assembles the daemon's HTTP surface: pipeline introspection,
// metrics, the trace journal, the SLO watchdog (readiness and bundles),
// fault-injection state, and the standard pprof endpoints. dog may be
// nil (no watchdog: /readyz degrades to a pipeline-started check, /slo
// and /debug/bundle report 404); inj and health may be nil (no injector
// / no platform); pv may be nil (probing off: /probe reports 404); led
// may be nil (provenance off: /explain reports 404); db may be nil
// (history off: /query and /dash report 404); pipe may be nil in the
// sharded controller mode (/status and /evidence point at /cluster);
// cv may be nil (not sharded: /cluster reports 404).
func newMux(pipe *stream.Pipeline, reg *metrics.Registry, tr *trace.Tracer, dog *watch.Watchdog, inj *spooftrack.FaultInjector, health *peering.LinkHealth, pv *probeView, led *provenance.Ledger, db *tsdb.DB, cv *clusterView) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if pipe == nil {
			http.Error(w, "no local pipeline (sharded controller mode; see /cluster)", http.StatusNotFound)
			return
		}
		writeJSON(w, pipe.Status(10))
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		if cv == nil {
			http.Error(w, "not a sharded deployment (-shards / -controller)", http.StatusNotFound)
			return
		}
		writeJSON(w, cv.status())
	})
	mux.HandleFunc("/faults", func(w http.ResponseWriter, r *http.Request) {
		fs := faultsStatus{Profile: "none"}
		switch {
		case pipe != nil:
			fs.Degraded = pipe.Degraded()
			fs.DroppedEvents = pipe.Dropped()
		case cv != nil:
			fs.Degraded = cv.status().Degraded
			if cv.dropped != nil {
				fs.DroppedEvents = cv.dropped()
			}
		}
		if inj != nil {
			st := inj.Stats()
			fs.Profile, fs.Seed, fs.Injected = st.Profile, st.Seed, st.Counts
		}
		if health != nil {
			fs.Links = health.Snapshot()
			fs.Quarantined = health.Quarantined()
		}
		writeJSON(w, fs)
	})
	mux.HandleFunc("/probe", func(w http.ResponseWriter, r *http.Request) {
		if pv == nil {
			http.Error(w, "no prober configured (-probe-interval 0)", http.StatusNotFound)
			return
		}
		ps := probeStatus{Status: pv.prober.Status()}
		pv.prober.Inference(func(inf *probe.SAVInference) {
			ps.Audit = probe.Audit(probe.BuildChannel(inf, 0), pv.catchment)
		})
		writeJSON(w, ps)
	})
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/query", queryHandler(db))
	mux.HandleFunc("/dash", func(w http.ResponseWriter, r *http.Request) {
		if db == nil {
			http.Error(w, "no metric history (-scrape-interval 0)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = fmt.Fprint(w, dashHTML)
	})
	mux.HandleFunc("/evidence", func(w http.ResponseWriter, r *http.Request) {
		if pipe == nil {
			http.Error(w, "no local pipeline (sharded controller mode; see /cluster and /explain)", http.StatusNotFound)
			return
		}
		if pipe.Status(0).Rounds == 0 {
			http.Error(w, "no rounds folded yet: evidence would list every source as a candidate", http.StatusConflict)
			return
		}
		rep, err := pipe.Evidence()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	})
	// Decision provenance. /explain lists the recorded verdicts (or, with
	// ?format=ledger / ?format=dot, exports the full timeline or the
	// provenance graph); /explain/{cluster} renders the complete evidence
	// chain behind one cluster of the final verdict, with an embedded
	// replay check proving the chain reproduces it.
	mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) {
		if !led.Enabled() {
			http.Error(w, "no provenance ledger (-ledger=false)", http.StatusNotFound)
			return
		}
		e := led.Export()
		switch format := r.URL.Query().Get("format"); format {
		case "":
			writeJSON(w, map[string]any{"events": len(e.Events), "verdicts": e.Verdicts()})
		case "ledger", "json":
			w.Header().Set("Content-Type", "application/json")
			_ = e.WriteJSON(w)
		case "dot":
			w.Header().Set("Content-Type", "text/vnd.graphviz")
			_ = e.WriteDOT(w)
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want ledger, json, or dot)", format), http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/explain/", func(w http.ResponseWriter, r *http.Request) {
		if !led.Enabled() {
			http.Error(w, "no provenance ledger (-ledger=false)", http.StatusNotFound)
			return
		}
		id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/explain/"))
		if err != nil {
			http.Error(w, "cluster id must be an integer: /explain/{cluster}", http.StatusBadRequest)
			return
		}
		ex, err := led.Export().Explain(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, ex)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "chrome":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="spooftrackd-trace.json"`)
			_ = tr.WriteChromeTrace(w)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = tr.WriteJSON(w)
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want chrome or json)", format), http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if dog == nil {
			http.Error(w, "no watchdog configured", http.StatusNotFound)
			return
		}
		writeJSON(w, dog.Status())
	})
	mux.HandleFunc("/debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		if dog == nil {
			http.Error(w, "no watchdog configured", http.StatusNotFound)
			return
		}
		path := dog.LastBundlePath()
		if path == "" {
			http.Error(w, "no diagnostic bundle captured yet", http.StatusNotFound)
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Bundle-Path", path)
		_, _ = w.Write(data)
	})
	// Liveness is process-up only; readiness additionally requires the
	// pipeline to be running and no SLO rule in breach, so an orchestrator
	// pulls a degraded daemon out of rotation without restarting it.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if pipe == nil {
			// Sharded modes without a local pipeline: ready unless the
			// cluster has latched the degraded (data-loss) flag.
			if cv == nil {
				http.Error(w, "pipeline not started", http.StatusServiceUnavailable)
				return
			}
			if cs := cv.status(); cs.Degraded {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				_ = json.NewEncoder(w).Encode(map[string]any{
					"ready":            false,
					"degraded":         true,
					"discarded_rounds": cs.DiscardedRounds,
				})
				return
			}
			fmt.Fprintln(w, "ok")
			return
		}
		if dog != nil && !dog.Healthy() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"ready":    false,
				"breaches": dog.BreachingRules(),
			})
			return
		}
		// Overload shedding is a degraded state: the pipeline is up but
		// dropping events, so pull the daemon out of rotation until the
		// controller observes the queues drain.
		if pipe.Degraded() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"ready":          false,
				"degraded":       true,
				"dropped_events": pipe.Dropped(),
			})
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// startAttackers launches n demo attackers spoofing from randomly
// chosen source ASes and returns a channel closed when all have
// stopped. The returned channel is already closed when n <= 0.
func startAttackers(ctx context.Context, tracker *spooftrack.Tracker, borderAddr net.Addr, n, pps int) <-chan struct{} {
	done := make(chan struct{})
	if n <= 0 {
		close(done)
		return done
	}
	rng := spooftrack.NewRNG(tracker.World.Params.Seed ^ 0x5f)
	victim := netip.MustParseAddr("192.0.2.66")
	asns := tracker.SourceASNs()
	burst := pps / 20 // 50ms cadence
	if burst < 1 {
		burst = 1
	}
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			k := rng.Intn(len(asns))
			a, err := amp.NewAttacker(uint32(asns[k]), victim)
			if err != nil {
				slog.Warn("attacker failed", "err", err)
				continue
			}
			defer a.Close()
			slog.Info("demo attacker spoofing", "attacker", i+1, "asn", asns[k], "source", k)
			go func(a *amp.Attacker) {
				t := time.NewTicker(50 * time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-t.C:
						if _, err := a.Flood(borderAddr, burst, 8); err != nil {
							return
						}
					}
				}
			}(a)
		}
		<-ctx.Done()
	}()
	return done
}

// writeSnapshot atomically writes the dataset of the configurations the
// pipeline has deployed so far.
func writeSnapshot(path string, camp *spooftrack.Campaign, deployed []int) error {
	if len(deployed) == 0 {
		return nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := core.WriteDataset(f, camp.SubCampaign(deployed).Dataset()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
