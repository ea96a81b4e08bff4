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
//	/status       a shard's intake counters (-shard-id mode only)
//	/faults       fault-injection stats and per-link circuit-breaker health
//	/probe        active SAV probing: scan status, per-verdict counts, and the
//	              probe-vs-catchment channel audit (404 with -probe-interval 0)
//	/metrics      counters, gauges and labeled counter vectors; JSON by
//	              default, Prometheus text format via Accept: text/plain or
//	              ?format=prometheus
//	/query        range queries over the embedded metric history of scalar
//	              series: raw samples, counter-reset-aware rate(), and
//	              sum/max aggregation across vector children
//	/dash         self-contained live dashboard (inline JS sparklines
//	              polling /query; no external assets)
//	/evidence     operator-facing localization evidence for the candidates
//	              (409 before the first fold; 404 on a shard, which decides nothing)
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
//	/cluster      the decide half: rounds, convergence, deployed configurations,
//	              clusters, candidates, and the shard tier's leader, term, epoch,
//	              member states, deferred/discarded rounds (404 on a shard)
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
// -> online reconfiguration -> convergence, observable via /cluster and
// /evidence. Shut down with SIGINT/SIGTERM; the daemon drains the
// pipeline (bounded by -shutdown-timeout), writes a final snapshot, and
// logs the localization outcome and its candidate ASes.
//
// The loop has two halves — count spoofed volume per ingress link under
// the deployed announcement (stream.Intake), decide the next
// announcement (stream.Evaluator) — and the daemon's three mutually
// exclusive modes are those two halves placed in one process or several
// (placement.go):
//
//	mode                   counts             decides        owns
//	(default), -shards N   here, 1 or N ways  here (leased)  /cluster /evidence
//	-shard-id ID           here               a -controller  /status /shard/*
//	-controller ...        the shards         here (leased)  /cluster /evidence
//
// Every other endpoint is registered by the component that owns it
// (routes.go) and is the same in every mode. That includes /readyz: an
// SLO breach pulls an in-process cluster out of rotation like any other. A
// shard's /status is its intake's counters (stream.Harvest) — it has no
// verdict, so it registers no /evidence. -snapshot follows the decide
// half: a shard writes none, its controller does.
//
// Multi-process deployments must agree on one attribution matrix: give
// every process the same -seed and the same -topo-file (written by
// cmd/topogen before any of them starts), and share -lease-file across
// controller replicas so failover is fenced through one lease.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
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
	"spooftrack/internal/stream"
	"spooftrack/internal/trace"
	"spooftrack/internal/tsdb"
	"spooftrack/internal/watch"
)

const (
	// probeBudget is the number of probe targets one scan round visits.
	probeBudget = 200
	// demoPPS is each demo attacker's spoofed packets per second.
	demoPPS = 400
)

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
	tracker, led, err := offline(cfg.world)
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
	w.pipe.Metrics, w.pipe.Ledger = obs.reg, led
	// Configurations whose links are quarantined by the circuit breaker
	// are routed around until the breaker cools down.
	w.pipe.Eval.Blocked = func() []bool {
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
		if cfg.probeInterval > 0 {
			if s.probe, err = newProbeView(cfg, tracker, obs); err != nil {
				return err
			}
			every(ctx, cfg.probeInterval, func() { s.probe.scan(led) })
		}
		w.pipe.Deploy = plane.deploy
	}
	w.pipe.Eval.Remeasure = s.probe.hints
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
		attackers := startAttackers(ctx, tracker, plane.border.Addr(), cfg.attackers)
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
		s.place.drain()
	}()
	select {
	case <-drained:
		slog.Info("pipeline drained", "took", time.Since(drainStart).Round(time.Millisecond))
	case <-time.After(cfg.shutdownTimeout):
		slog.Warn("pipeline drain timed out; exiting with events unflushed", "timeout", cfg.shutdownTimeout)
	}
	return nil
}

// startObservability brings tracing, metrics and the metric history up —
// before the offline phase, so campaign deployment itself is captured —
// and returns the function that stops the history scraper.
func startObservability(cfg config) (observability, func()) {
	o := observability{reg: metrics.NewRegistry()}
	o.tracer = trace.New(cfg.trace)
	trace.SetGlobal(o.tracer)
	o.db = tsdb.New(tsdb.Options{Registry: o.reg})
	o.db.Start()
	return o, o.db.Stop
}

// offline is the offline phase: world + campaign + measured catchments.
// UseTruth keeps startup interactive; a real deployment measures
// instead.
func offline(c worldConfig) (*spooftrack.Tracker, *provenance.Ledger, error) {
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
	params.UseTruth = true
	params.FaultProfile = c.faultProfile
	params.FaultSeed = c.faultSeed
	// Decision-provenance ledger: built before the tracker so the
	// offline campaign's deploys, retries, and degradations are on the
	// record from the first event. A nil ledger keeps every Record* site
	// a no-op (-ledger=false).
	var led *provenance.Ledger
	if c.ledger {
		led = spooftrack.NewProvenanceLedger()
	}
	params.Ledger = led
	if c.faultProfile != "" {
		slog.Info("fault injection enabled", "profile", c.faultProfile, "seed", c.faultSeed)
	}
	slog.Info("offline: building world and measuring campaign catchments", "ases", c.ases)
	tracker, err := spooftrack.NewTracker(params)
	if err != nil {
		return nil, nil, err
	}
	camp, platform := tracker.Campaign, tracker.World.Platform
	slog.Info("offline phase complete",
		"configs", camp.NumConfigs(), "sources", camp.NumSources(), "links", platform.NumLinks())
	if len(camp.Incomplete) > 0 {
		slog.Warn("campaign degraded: some configurations permanently failed; localization proceeds with coarser clusters",
			"incomplete", camp.Incomplete)
	}
	return tracker, led, nil
}

// packetPlane is the loopback data path: an AmpPot-style honeypot
// behind a border router whose catchment table is the deployed
// configuration.
type packetPlane struct {
	hp     *amp.Honeypot
	border *amp.Border

	// mu serializes deploys and guards applied, the configuration the
	// border routes by (-1 before the first deploy).
	mu      sync.Mutex
	applied int
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
	return &packetPlane{hp: hp, border: border, applied: -1}, nil
}

// deploy closes the loop onto the border: deploying a configuration
// means swapping the live catchment table. Every intake of the placement
// deploys through it, and an intake deploys only when its configuration
// changes, so with -shards N the N deploys of one broadcast hand over
// the same configuration back to back: only the first is applied and
// logged.
func (p *packetPlane) deploy(cfgIdx int, table map[uint32]uint8) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cfgIdx == p.applied {
		return
	}
	p.applied = cfgIdx
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
	lastSignal map[int]probe.SAVSignal
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
		Budget:      probeBudget,
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
		"targets", prober.NumTargets(), "budget", probeBudget, "interval", cfg.probeInterval)
	return newProbeViewOf(prober, out.CatchmentVector(), tracker.Campaign.Sources), nil
}

// newProbeViewOf wires a prober to the catchment vector its audit is
// compared against and to the campaign's source positions (dense AS
// indices), from which scan maps conflicting ASes to re-measurement
// hints.
func newProbeViewOf(prober *probe.Prober, catchment []bgp.LinkID, sources []int) *probeView {
	pv := &probeView{
		prober:     prober,
		catchment:  catchment,
		srcOf:      make(map[int]int, len(sources)),
		lastSignal: make(map[int]probe.SAVSignal),
	}
	for k, as := range sources {
		pv.srcOf[as] = k
	}
	return pv
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
		pc := probe.BuildChannel(inf)
		if led.Enabled() {
			for as, sig := range pc.Signal {
				if sig == probe.SAVNoData || pv.lastSignal[as] == sig {
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

// newWatchdog builds the SLO watchdog: it drops a diagnostic bundle when
// the live loop degrades past its objectives.
func newWatchdog(cfg config, o observability) *watch.Watchdog {
	wc := cfg.watch
	wc.Registry, wc.Tracer, wc.DB = o.reg, o.tracer, o.db
	// Breach bundles embed the last hour of these families.
	wc.BundleHistory = []string{
		"stream_events_total",
		"amp_border_packets_total",
	}
	wc.Rules = watchRules()
	return watch.New(wc)
}

// watchRules is the daemon's SLO rule set. Every rule but the coverage
// gauge reads a window of the metric history, so a breach judges the
// recent past of an hours-long run, never its lifetime totals.
func watchRules() []watch.Rule {
	return []watch.Rule{
		{
			Name:      "border-drop-rate",
			Expr:      watch.Rate(watch.Counter{Family: "amp_border_packets_total", Child: "outcome=dropped"}, time.Minute),
			Op:        watch.Above,
			Threshold: 100,
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
			Name: "border-drop-burn",
			Expr: watch.Burn(
				watch.Counter{Family: "amp_border_packets_total", Child: "outcome=dropped"},
				watch.Counter{Family: "amp_border_packets_total"},
				0.99, 5*time.Minute, time.Hour),
			Op:        watch.Above,
			Threshold: 2.0,
			For:       3,
		},
		// Probe-channel health. Both rules read metrics the prober
		// registers only when probing is on, so with -probe-interval 0
		// they sit in the no-data state and never fire.
		{
			Name:      "probe-coverage",
			Expr:      watch.Metric("probe_coverage"),
			Op:        watch.Below,
			Threshold: 0.05,
			For:       3,
		},
		{
			Name: "probe-loss-rate",
			Expr: watch.Fraction(
				watch.Counter{Family: "probe_lost_total"},
				watch.Counter{Family: "probe_sent_total"},
				time.Minute),
			Op:        watch.Above,
			Threshold: 0.9,
			For:       3,
		},
	}
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
func startAttackers(ctx context.Context, tracker *spooftrack.Tracker, borderAddr net.Addr, n int) <-chan struct{} {
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
			_, _ = a.Flood(borderAddr, demoPPS/20, 8)
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
// far through a temp file and a rename, so a reader of the last
// snapshot never sees a partial file.
func writeSnapshot(path string, camp *spooftrack.Campaign, deployed []int) error {
	if len(deployed) == 0 {
		return nil
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := core.WriteDataset(tmp, camp.SubCampaign(deployed).Dataset()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
