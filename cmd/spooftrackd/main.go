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
//	              (a shard: intake counters only; 404 where nothing is counted)
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
//	              (single-node mode only)
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
//	/readyz       readiness probe (no SLO in breach and the mode not degraded)
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
// The loop has two halves — count spoofed volume per ingress link under
// the deployed announcement (stream.Intake), decide the next
// announcement (stream.Evaluator) — and the daemon's four mutually
// exclusive modes are those two halves placed in one process or several
// (placement.go):
//
//	mode             counts         decides        owns
//	(default)        here           here           /status /evidence
//	-shards N        here, N ways   here (leased)  /cluster
//	-shard-id ID     here           a -controller  /status /shard/*
//	-controller ...  the shards     here (leased)  /cluster
//
// Every other endpoint is registered by the component that owns it
// (routes.go) and is the same in every mode. That includes /readyz: an
// SLO breach pulls a -shards N daemon out of rotation like any other. A
// shard's /status is its intake's counters (stream.Harvest) — it has no
// verdict, so it registers no /evidence. -snapshot follows the decide
// half: a shard writes none, its controller does.
//
// Multi-process deployments must agree on one attribution matrix: give
// every process the same -seed and the same -topo-file (written with
// -topo-write or topo.WriteCAIDA), and share -lease-file across
// controller replicas so failover is fenced through one lease.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"spooftrack"
	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/metrics"
	"spooftrack/internal/probe"
	"spooftrack/internal/provenance"
	"spooftrack/internal/sched"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
	"spooftrack/internal/watch"
)

// degradedRecoveryWindow is how long the shed-drop counter must stay
// flat (per metric history) before an intake's degraded flag may clear.
const degradedRecoveryWindow = 30 * time.Second

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spooftrackd:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, cfg)
	stop()
	if err != nil {
		slog.Error("startup failed", "err", err)
		os.Exit(1)
	}
}

// run is the daemon's one skeleton: instruments, offline phase, the
// front end where packets are counted, the placement the flags select,
// HTTP, then wait, drain, snapshot and stop. It returns startup
// failures; after startup it returns nil once shut down.
func run(ctx context.Context, cfg config) error {
	slog.SetDefault(cfg.logger)
	obs, stopObs := startObservability(cfg)
	defer stopObs()
	tracker, led, err := offline(cfg.world, obs.reg)
	if err != nil {
		return err
	}
	camp, platform := tracker.Campaign, tracker.World.Platform

	s := surface{obs: obs, led: led, inj: tracker.Fault, health: platform.Health()}
	// The attribution contract every placement shares, and the loop
	// configuration closed onto the rest of the daemon.
	w := wiring{
		attr: stream.Attribution{
			Catchments: camp.Catchments,
			SourceASNs: tracker.SourceASNs(),
			NumLinks:   platform.NumLinks(),
		},
		pipe: cfg.pipe,
		inj:  tracker.Fault,
	}
	w.pipe.Metrics, w.pipe.Ledger, w.pipe.DegradedRecovery = obs.reg, led, obs.shedQuiet
	// Configurations whose links are quarantined by the circuit breaker
	// are routed around until the breaker cools down.
	w.pipe.Blocked = func() []bool {
		return sched.QuarantineMask(tracker.Plan, platform.Health().IsQuarantined)
	}

	// A controller decides over counts made elsewhere: it has no packet
	// plane to tap, watch or probe from.
	counting := cfg.place.peerIDs == nil
	var plane *packetPlane
	if counting {
		if plane, err = newPacketPlane(obs.reg); err != nil {
			return err
		}
		defer plane.close()
		s.dog = newWatchdog(cfg, obs)
		s.dog.Start()
		defer s.dog.Stop()
		if cfg.probe.interval > 0 {
			if s.probe, err = newProbeView(cfg, tracker, obs); err != nil {
				return err
			}
			every(ctx, cfg.probe.interval, func() { s.probe.scan(led) })
		}
		w.pipe.Deploy = plane.deploy
	}
	w.pipe.Remeasure = s.probe.hints
	w.ready = s.dog.ReadyFunc()

	if s.place, err = newPlacement(ctx, cfg.place, w); err != nil {
		return err
	}
	// The degraded flag as a gauge, so the dashboard and /query see its
	// history (when it flapped, for how long), not just the current
	// boolean on /readyz.
	obs.reg.GaugeFunc("stream_degraded", func() float64 {
		if deg, _ := s.place.degraded(); deg {
			return 1
		}
		return 0
	})
	defer serveHTTP(cfg.listen, s.mux())()

	// Periodic dataset snapshot of the configurations deployed so far,
	// and a final one once the placement has drained.
	if path := cfg.snapshot.path; path != "" {
		save := func() error { return writeSnapshot(path, camp, s.place.deployed()) }
		ticks := every(ctx, cfg.snapshot.every, func() {
			if err := save(); err != nil {
				slog.Warn("snapshot failed", "err", err)
			}
		})
		defer func() {
			<-ticks
			if err := save(); err != nil {
				slog.Warn("final snapshot failed", "err", err)
			} else {
				slog.Info("final snapshot written", "path", path)
			}
		}()
	}

	// quiesce stops the producers and detaches the tap.
	quiesce := func() {}
	if counting {
		plane.hp.SetTap(s.place.ingest)
		slog.Info("packet plane up: point spoofed traffic at the border",
			"honeypot", plane.hp.Addr().String(), "border", plane.border.Addr().String())
		// Demo traffic: spoofing attackers flooding the border until the
		// daemon shuts down.
		attackers := startAttackers(ctx, tracker, plane.border.Addr(), cfg.demo.attackers, cfg.demo.pps)
		quiesce = func() {
			<-attackers
			plane.hp.SetTap(nil)
		}
	}

	<-ctx.Done()
	slog.Info("shutting down: draining pipeline", "timeout", cfg.shutdownTimeout)

	// Graceful order: stop producers, detach the tap, then drain the
	// placement so every accepted event is folded before reporting. The
	// drain is bounded: if it exceeds -shutdown-timeout (e.g. a wedged
	// consumer), the daemon reports the failure and exits anyway rather
	// than hanging the supervisor.
	drainStart := time.Now()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		quiesce()
		s.place.drain(cfg.shutdownTimeout)
	}()
	select {
	case <-drained:
		slog.Info("pipeline drained", "took", time.Since(drainStart).Round(time.Millisecond))
	case <-time.After(cfg.shutdownTimeout):
		slog.Warn("pipeline drain timed out; exiting with events unflushed", "timeout", cfg.shutdownTimeout)
	}
	return nil
}

// startObservability brings tracing and metrics up — before the offline
// phase, so campaign deployment itself is captured — and returns the
// function that stops the history scraper.
func startObservability(cfg config) (observability, func()) {
	o := observability{reg: metrics.NewRegistry()}
	registerRuntimeGauges(o.reg)
	// The OnEnd bridge feeds every span's duration into a per-span-name
	// histogram, making trace timings visible on /metrics without
	// exporting the journal. Journal evictions are span loss: a span
	// overwritten before anyone exported it, counted per span name so a
	// hot path flooding the journal is identifiable (and alertable).
	spanObs := metrics.SpanObserver(o.reg, "trace_span_")
	vEvicted := o.reg.CounterVec("trace_journal_evicted_total", "track")
	cfg.trace.OnEnd = func(rec trace.SpanRecord) { spanObs(rec.Name, rec.Duration.Seconds()) }
	cfg.trace.OnEvict = func(rec trace.SpanRecord) { vEvicted.With(rec.Name).Inc() }
	o.tracer = trace.New(cfg.trace)
	trace.SetGlobal(o.tracer)
	if cfg.scrape <= 0 {
		// No history: the daemon degrades to instantaneous two-frame
		// semantics.
		return o, func() {}
	}
	o.db = tsdb.New(tsdb.Options{Registry: o.reg, Interval: cfg.scrape})
	o.db.Start()
	return o, o.db.Stop
}

// shedQuiet is the history-aware recovery oracle: the degraded flag
// clears only after a full recovery window with zero shed drops, not
// merely one quiet control tick — a flapping overload holds the flag
// instead of strobing /readyz. Without history the intake's own
// drained-and-quiet check stands alone.
func (o observability) shedQuiet() bool {
	if o.db == nil {
		return true
	}
	now := time.Now()
	delta, _, ok := o.db.Increase("stream_dropped_total", "", now.Add(-degradedRecoveryWindow), now)
	return !ok || delta == 0
}

// offline is the offline phase: world + campaign + measured catchments.
// UseTruth keeps startup interactive; a real deployment measures
// instead.
func offline(c worldConfig, reg *metrics.Registry) (*spooftrack.Tracker, *provenance.Ledger, error) {
	params := spooftrack.DefaultTrackerParams(c.seed)
	tp := spooftrack.DefaultGenParams(c.seed)
	tp.NumASes = c.ases
	params.World.Topo = &tp
	if c.topoFile != "" {
		g, err := loadTopo(c.topoFile)
		if err != nil {
			return nil, nil, fmt.Errorf("topology load %s: %w", c.topoFile, err)
		}
		params.World.Graph = g
		slog.Info("topology loaded from file (-ases ignored)", "path", c.topoFile, "ases", g.NumASes())
	}
	params.World.MaxPoisonTargets = c.poison
	params.World.OutcomeCacheCap = c.cacheCap
	params.UseTruth = true
	params.Metrics = reg
	params.FaultProfile = c.faultProfile
	params.FaultSeed = c.faultSeed
	params.Retry = spooftrack.DefaultRetryPolicy()
	params.Retry.MaxAttempts = c.deployRetries
	// Decision-provenance ledger: built before the tracker so the
	// offline campaign's deploys, retries, and degradations are on the
	// record from the first event. A nil ledger keeps every Record* site
	// a no-op (-ledger=false).
	var led *provenance.Ledger
	if c.ledger {
		led = spooftrack.NewProvenanceLedger()
		led.Instrument(reg)
	}
	params.Ledger = led
	if c.faultProfile != "" {
		slog.Info("fault injection enabled", "profile", c.faultProfile, "seed", c.faultSeed,
			"retries", c.deployRetries)
	}
	slog.Info("offline: building world and measuring campaign catchments", "ases", c.ases)
	tracker, err := spooftrack.NewTracker(params)
	if err != nil {
		return nil, nil, err
	}
	camp, platform := tracker.Campaign, tracker.World.Platform
	slog.Info("offline phase complete",
		"configs", camp.NumConfigs(), "sources", camp.NumSources(), "links", platform.NumLinks())
	if c.topoWrite != "" {
		err := writeFileAtomic(c.topoWrite, func(w io.Writer) error { return topo.WriteCAIDA(w, tracker.World.Graph) })
		if err != nil {
			return nil, nil, fmt.Errorf("topology write %s: %w", c.topoWrite, err)
		}
		slog.Info("topology written", "path", c.topoWrite)
	}
	if len(camp.Incomplete) > 0 {
		slog.Warn("campaign degraded: some configurations permanently failed; localization proceeds with coarser clusters",
			"incomplete", camp.Incomplete)
	}

	// Outcome-cache effectiveness: bgp_outcome_cache_requests_total{result}
	// and the size gauge, counted at the cache itself; the watchdog's
	// hit-rate floor reads the family.
	platform.InstrumentCache(reg)
	return tracker, led, nil
}

// packetPlane is the loopback data path: an AmpPot-style honeypot
// behind a border router whose catchment table is the deployed
// configuration.
type packetPlane struct {
	hp     *amp.Honeypot
	border *amp.Border
}

func newPacketPlane(reg *metrics.Registry) (*packetPlane, error) {
	hp, err := amp.NewHoneypot("127.0.0.1:0", amp.DefaultHoneypotConfig())
	if err != nil {
		return nil, fmt.Errorf("honeypot: %w", err)
	}
	hp.SetMetrics(reg)
	border, err := amp.NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), nil)
	if err != nil {
		hp.Close()
		return nil, fmt.Errorf("border: %w", err)
	}
	border.SetMetrics(reg)
	return &packetPlane{hp: hp, border: border}, nil
}

// deploy closes the loop onto the border: deploying a configuration
// means swapping the live catchment table.
func (p *packetPlane) deploy(cfgIdx int, table map[uint32]uint8) {
	p.border.SetCatchments(table)
	slog.Info("deploy", "config", cfgIdx, "routed_sources", len(table))
}

func (p *packetPlane) close() {
	p.border.Close()
	p.hp.Close()
}

// probeView is the second evidence channel: the live prober, the
// propagation-derived catchment vector its channel audit is compared
// against, and the conflict set the last scan published.
type probeView struct {
	prober    *probe.Prober
	catchment []bgp.LinkID
	// srcOf maps an AS to its campaign source position.
	srcOf      map[int]int
	lastSignal map[int]spoof.SAVSignal
	conflicts  atomic.Pointer[[]int]
}

// newProbeView builds the prober over the same converged topology the
// campaign runs on: it sends control/inbound/outbound probes at each
// target AS and folds the answers into per-AS SAV verdicts with honest
// confidences. Losses ride the same fault injector as the rest of the
// daemon, and probe scheduling respects the circuit breaker's link
// quarantines.
func newProbeView(cfg config, tracker *spooftrack.Tracker, obs observability) (*probeView, error) {
	platform, seed := tracker.World.Platform, cfg.world.seed
	anns := make([]bgp.Announcement, platform.NumLinks())
	for i := range anns {
		anns[i] = bgp.Announcement{Link: bgp.LinkID(i)}
	}
	out, err := platform.Propagate(bgp.Config{Anns: anns})
	if err != nil {
		return nil, fmt.Errorf("probe baseline propagation: %w", err)
	}
	// The simulated target fleet: seeded SAV ground truth the inference
	// is later judged against (a real deployment probes the actual
	// networks instead).
	truth := probe.RandomGroundTruth(out.Graph().NumASes(), 0.4, 0.5, seed)
	simnet, err := probe.NewSimNet(out, truth, 0, seed)
	if err != nil {
		return nil, fmt.Errorf("probe network: %w", err)
	}
	pcfg := probe.Config{
		Net:         simnet,
		TargetLinks: out.CatchmentVector(),
		LinkNames:   platform.LinkNames(),
		Budget:      cfg.probe.budget,
		Quarantined: platform.Health().IsQuarantined,
		Tracer:      obs.tracer,
	}
	if tracker.Fault != nil {
		pcfg.Fault = tracker.Fault
	}
	prober, err := probe.NewProber(pcfg)
	if err != nil {
		return nil, fmt.Errorf("prober: %w", err)
	}
	prober.Instrument(obs.reg)
	slog.Info("active SAV probing enabled",
		"targets", prober.NumTargets(), "budget", cfg.probe.budget, "interval", cfg.probe.interval)
	pv := &probeView{
		prober:     prober,
		catchment:  out.CatchmentVector(),
		srcOf:      make(map[int]int, tracker.Campaign.NumSources()),
		lastSignal: make(map[int]spoof.SAVSignal),
	}
	for k, as := range tracker.Campaign.Sources {
		pv.srcOf[as] = k
	}
	return pv, nil
}

// hints are the re-measurement hints the decide half consults: the
// source positions where the probe channel's measured ingress conflicts
// with the campaign catchment, worth spare reconfiguration budget. Nil
// without a prober.
func (pv *probeView) hints() []int {
	if pv == nil {
		return nil
	}
	if p := pv.conflicts.Load(); p != nil {
		return *p
	}
	return nil
}

// scan runs one budget-bounded probe round, rotating fairly through the
// target fleet, then promotes newly confident verdicts into the
// provenance ledger and publishes the probe-vs-catchment conflict set.
func (pv *probeView) scan(led *provenance.Ledger) {
	rep := pv.prober.Round(nil)
	pv.prober.Inference(func(inf *probe.SAVInference) {
		pc := probe.BuildChannel(inf, 0)
		if led.Enabled() {
			for as, sig := range pc.Signal {
				if sig == spoof.SAVNoData || pv.lastSignal[as] == sig {
					continue
				}
				pv.lastSignal[as] = sig
				src, ok := pv.srcOf[as]
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
			if src, ok := pv.srcOf[as]; ok {
				hints = append(hints, src)
			}
		}
		pv.conflicts.Store(&hints)
	})
	slog.Debug("probe round",
		"round", rep.Round, "visited", rep.Visited, "skipped", rep.Skipped,
		"sent", rep.Sent, "lost", rep.Lost, "answered", rep.Answered,
		"discarded", rep.Discarded, "took", rep.Duration.Round(time.Microsecond))
}

// newWatchdog builds the SLO watchdog: it flight-records registry
// snapshots and drops a diagnostic bundle when the live loop degrades
// past its objectives.
func newWatchdog(cfg config, o observability) *watch.Watchdog {
	wc, c := cfg.watch, cfg.slo
	wc.Registry, wc.Tracer = o.reg, o.tracer
	// History-backed evaluation: rate rules average over their Window
	// instead of two adjacent ticks, burn-rate rules compare error
	// budget consumption across fast and slow windows, and breach
	// bundles embed the metric history leading into the breach.
	wc.DB = o.db
	wc.BundleHistory = []string{
		"stream_events_total",
		"stream_dropped_total",
		"stream_flush_lag_seconds",
		"amp_border_packets_total",
		"bgp_outcome_cache_requests_total",
	}
	wc.Rules = []watch.Rule{
		{
			Name:      "stream-flush-lag-p99",
			Expr:      watch.Quantile("stream_flush_lag_seconds", 0.99),
			Op:        watch.Above,
			Threshold: c.flushLag,
			For:       3,
		},
		{
			Name:      "border-drop-rate",
			Expr:      watch.Series("amp_border_packets_total", "outcome=dropped"),
			Rate:      true,
			Window:    time.Minute,
			Op:        watch.Above,
			Threshold: c.dropRate,
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
			Objective: c.dropObjective,
			Windows:   []time.Duration{5 * time.Minute, time.Hour},
			Op:        watch.Above,
			Threshold: c.dropBurn,
			For:       3,
		},
		{
			Name:      "stream-shed-rate",
			Expr:      watch.Metric("stream_dropped_total"),
			Rate:      true,
			Window:    time.Minute,
			Op:        watch.Above,
			Threshold: c.shedRate,
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
			Threshold: c.cacheHit,
			For:       3,
		},
		// Probe-channel health. Both rules read metrics the prober
		// registers only when probing is on, so with -probe-interval 0
		// they sit in the no-data state and never fire.
		{
			Name:      "probe-coverage",
			Expr:      watch.Metric("probe_coverage"),
			Op:        watch.Below,
			Threshold: c.probeCoverage,
			For:       3,
		},
		{
			Name: "probe-loss-rate",
			Expr: watch.Ratio(
				watch.VecSum("probe_lost_total"),
				watch.VecSum("probe_sent_total"),
			),
			Op:        watch.Above,
			Threshold: c.probeLoss,
			For:       3,
		},
	}
	return watch.New(wc)
}

// every runs fn on a ticker until ctx is done; the returned channel is
// closed once the loop has exited.
func every(ctx context.Context, d time.Duration, fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return done
}

// serveHTTP starts the daemon's HTTP server and returns the function
// that shuts it down gracefully and reports how serving ended.
func serveHTTP(addr string, h http.Handler) (stop func()) {
	srv := &http.Server{Addr: addr, Handler: h}
	httpErr := make(chan error, 1)
	go func() {
		slog.Info("http listening", "addr", addr)
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

// newLogger builds the daemon's slog logger at the requested level.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// startAttackers launches n demo attackers spoofing from randomly
// chosen source ASes, flooding the border every 50ms until ctx is done,
// and returns a channel closed when they have stopped.
func startAttackers(ctx context.Context, tracker *spooftrack.Tracker, borderAddr net.Addr, n, pps int) <-chan struct{} {
	rng := spooftrack.NewRNG(tracker.World.Params.Seed ^ 0x5f)
	victim := netip.MustParseAddr("192.0.2.66")
	asns := tracker.SourceASNs()
	var attackers []*amp.Attacker
	for i := 0; i < n; i++ {
		k := rng.Intn(len(asns))
		a, err := amp.NewAttacker(uint32(asns[k]), victim)
		if err != nil {
			slog.Warn("attacker failed", "err", err)
			continue
		}
		slog.Info("demo attacker spoofing", "attacker", i+1, "asn", asns[k], "source", k)
		attackers = append(attackers, a)
	}
	flooding := every(ctx, 50*time.Millisecond, func() {
		for _, a := range attackers {
			// A failed burst is the border going away at shutdown.
			_, _ = a.Flood(borderAddr, max(pps/20, 1), 8)
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-flooding
		for _, a := range attackers {
			a.Close()
		}
	}()
	return done
}

// writeSnapshot writes the dataset of the configurations deployed so
// far.
func writeSnapshot(path string, camp *spooftrack.Campaign, deployed []int) error {
	if len(deployed) == 0 {
		return nil
	}
	return writeFileAtomic(path, func(w io.Writer) error {
		return core.WriteDataset(w, camp.SubCampaign(deployed).Dataset())
	})
}
