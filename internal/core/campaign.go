package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/measure"
	"spooftrack/internal/metrics"
	"spooftrack/internal/provenance"
	"spooftrack/internal/sched"
	"spooftrack/internal/stats"
	"spooftrack/internal/trace"
)

// CampaignOptions tunes a campaign run.
type CampaignOptions struct {
	// UseTruth skips the measurement pipeline and uses the routing
	// engine's true catchments for every AS. Useful for isolating
	// algorithmic behaviour from measurement noise (and much faster).
	UseTruth bool
	// Progress, if non-nil, is called after each deployed configuration
	// with the number of configurations completed. Calls never overlap
	// and done rises by one from each to the next, whatever Parallelism.
	Progress func(done, total int)
	// ConcurrentPrefixes deploys the plan over this many dedicated
	// prefixes in parallel time slots (§V-C's first speedup: "use
	// multiple prefixes and deploy multiple configurations
	// concurrently"). Prefixes route independently, so catchments are
	// unchanged; the campaign's simulated duration divides by this
	// factor. Zero or one means a single prefix.
	ConcurrentPrefixes int
	// Parallelism bounds the worker pool that runs route propagation and
	// the measurement pipeline across configurations (host CPU
	// parallelism, not a simulation parameter; results are bit-identical
	// at any setting). Zero means GOMAXPROCS.
	Parallelism int
	// NoOutcomeCache bypasses the platform's outcome cache for this
	// campaign: every configuration is propagated from scratch even if
	// seen before. Outcomes are identical either way; this exists for
	// benchmarking and memory-bounded runs.
	NoOutcomeCache bool
	// Ctx, if non-nil, cancels the campaign early: deployment and
	// measurement stop between configurations and RunCampaign returns
	// the context's error. Nil means run to completion.
	Ctx context.Context
	// Metrics, if non-nil, receives per-phase campaign instrumentation:
	// core_campaign_phase_seconds{phase="deploy"|"measure"} wall-clock
	// histograms, core_campaign_configs_total{phase} counters, plus
	// core_campaign_retries_total{phase} and
	// core_campaign_incomplete_configs_total under faults.
	Metrics *metrics.Registry
	// Retry controls per-configuration retry of faulted deployment and
	// measurement attempts (exponential backoff + deterministic jitter,
	// honoring Ctx). The zero policy makes every fault fatal, which is
	// the fault-free behaviour. Deployment faults come from the
	// platform's fault hook (peering.Platform.SetFaultHook); measurement
	// faults from MeasureFault.
	Retry RetryPolicy
	// MeasureFault, if non-nil, injects measurement-attempt faults
	// (and, when it also implements MeasureMasker, partial catchment
	// visibility on successful measurements). fault.Injector implements
	// both. Nil costs the hot path nothing.
	MeasureFault MeasureFaultHook
	// Ledger, if non-nil, records campaign provenance: every deployment
	// (with attempt counts), retry, permanent degradation, the final
	// catchment rows, and the campaign verdict. A nil ledger is
	// provenance-off and costs the hot path one nil check per event
	// site.
	Ledger *provenance.Ledger
}

// Campaign is the result of deploying a plan: per-configuration routing
// outcomes, measurements, and the imputed source-catchment matrix that
// clustering and scheduling consume.
type Campaign struct {
	World *World
	Plan  []sched.PlannedConfig
	// Outcomes[c] is the converged routing state of configuration c.
	Outcomes []*bgp.Outcome
	// Measurements[c] is the inferred per-AS catchment assignment
	// (nil when the campaign ran with UseTruth).
	Measurements []*measure.CatchmentMeasurement
	// Sources are the dense AS indices under analysis (§IV-d: the ASes
	// observed in the baseline configuration).
	Sources []int
	// Catchments[c][k] is the catchment of Sources[k] in configuration
	// c after imputation.
	Catchments [][]bgp.LinkID
	// Imputed is the imputation report (nil with UseTruth).
	Imputed *measure.ImputeResult
	// Incomplete lists the plan indices of configurations permanently
	// lost to faults (retries exhausted under a degrading RetryPolicy),
	// ascending. Their catchment rows are all-unknown (bgp.NoLink), so
	// clustering never splits on them: the final partition is provably a
	// coarsening of the fault-free partition. Empty on a clean run.
	Incomplete []int
	// Elapsed is the simulated experiment duration.
	Elapsed time.Duration

	finalOnce sync.Once
	finalPart *cluster.Partition
}

// IsIncomplete reports whether configuration cfgIdx was permanently
// lost to faults.
func (c *Campaign) IsIncomplete(cfgIdx int) bool {
	for _, i := range c.Incomplete {
		if i == cfgIdx {
			return true
		}
	}
	return false
}

// RunCampaign deploys every configuration of the plan in order, measures
// (or reads off) catchments, and imputes visibility.
func (w *World) RunCampaign(plan []sched.PlannedConfig, opts CampaignOptions) (*Campaign, error) {
	if len(plan) == 0 {
		return nil, fmt.Errorf("core: empty plan")
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Campaign{World: w, Plan: plan}
	rng := w.rngFor(0xc0113c7)

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan) {
		workers = len(plan)
	}

	// Root span for the whole campaign; every phase below nests under it.
	// Tracing never changes results: RNG splitting, deployment order, and
	// the simulated clock are identical with the tracer on or off.
	csp := trace.Start("core.campaign")
	defer csp.End()
	if csp != nil {
		csp.Set(
			trace.Int("configs", int64(len(plan))),
			trace.Int("workers", int64(workers)),
			trace.Bool("use_truth", opts.UseTruth),
		)
	}

	var phaseH *metrics.HistogramVec
	var cfgC, retryC *metrics.CounterVec
	var incompleteC *metrics.Counter
	if opts.Metrics != nil {
		phaseH = opts.Metrics.HistogramVec("core_campaign_phase_seconds",
			[]string{"phase"}, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 600)
		cfgC = opts.Metrics.CounterVec("core_campaign_configs_total", "phase")
		retryC = opts.Metrics.CounterVec("core_campaign_retries_total", "phase")
		incompleteC = opts.Metrics.Counter("core_campaign_incomplete_configs_total")
	}
	retry := opts.Retry
	led := opts.Ledger

	// Per-config RNGs split in plan order up front, so downstream results
	// do not depend on execution parallelism.
	rngs := make([]*stats.RNG, len(plan))
	for i := range plan {
		rngs[i] = rng.Split()
	}

	// Deployment splits into three steps so propagation — the expensive
	// part — can fan out across the worker pool while everything ordered
	// stays sequential: (1) constraint-check in plan order, so validation
	// errors surface at deterministic indices; (2) propagate each
	// configuration concurrently into its slot (after CheckConstraints,
	// propagation cannot fail except by cancellation); (3) record
	// clock/history strictly in plan order. Outcomes are bit-identical at
	// any Parallelism setting.
	for i, pc := range plan {
		if err := w.Platform.CheckConstraints(pc.Config); err != nil {
			return nil, fmt.Errorf("core: config %d (%v): %w", i, pc.Config, err)
		}
	}
	c.Outcomes = make([]*bgp.Outcome, len(plan))
	perrs := make([]error, len(plan))
	deployStart := time.Now()
	runPoolSpans(csp, "campaign.deploy.worker", workers, len(plan), func(i int, wsp *trace.Span) {
		if err := ctx.Err(); err != nil {
			perrs[i] = err
			return
		}
		var dsp *trace.Span
		if wsp != nil {
			// All indices are enqueued at phase start, so pickup time
			// relative to deployStart is exactly this config's wait in the
			// worker-pool queue.
			dsp = wsp.Child("campaign.deploy")
			dsp.Count("queue_wait_ns", time.Since(deployStart).Nanoseconds())
			dsp.Set(trace.String("config", plan[i].Config.Key()))
		}
		// Retry loop: each attempt goes through the platform's fault hook
		// (if any). After CheckConstraints, propagation itself cannot fail,
		// so every retryable error here is an injected deployment fault.
		var out *bgp.Outcome
		var err error
		attempts := 0
		for attempt := 0; ; attempt++ {
			if err = ctx.Err(); err != nil {
				break
			}
			out, err = w.Platform.PropagateAttempt(plan[i].Config, attempt, opts.NoOutcomeCache, dsp)
			attempts = attempt + 1
			if err == nil || attempt+1 >= retry.attempts() {
				if dsp != nil {
					dsp.Count("attempts", int64(attempt+1))
				}
				break
			}
			if retryC != nil {
				retryC.With("deploy").Inc()
			}
			led.RecordRetry(provenance.RetryEvent{Config: i, Phase: "deploy", Attempt: attempt, Error: err.Error()})
			if serr := sleepCtx(ctx, retry.Backoff(i, attempt)); serr != nil {
				err = serr
				break
			}
		}
		if err == nil && led.Enabled() {
			led.RecordDeploy(provenance.DeployEvent{
				Config:   i,
				Key:      plan[i].Config.Key(),
				Attempts: attempts,
				Phase:    plan[i].Phase.String(),
			})
		}
		c.Outcomes[i] = out
		perrs[i] = err
		dsp.End()
	})
	for i := range plan {
		if err := perrs[i]; err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("core: campaign canceled at config %d: %w", i, err)
			}
			if retry.DegradeOnExhaust && i != 0 {
				// Permanently lost: record incomplete and move on. The
				// config's catchment row stays all-unknown and the simulated
				// clock does not advance for it (nothing was deployed).
				c.Outcomes[i] = nil
				c.Incomplete = append(c.Incomplete, i)
				if incompleteC != nil {
					incompleteC.Inc()
				}
				led.RecordDegrade(provenance.DegradeEvent{Config: i, Phase: "deploy", Error: err.Error()})
				continue
			}
			if i == 0 && retry.DegradeOnExhaust {
				return nil, fmt.Errorf("core: baseline config permanently lost (sources are derived from it): %w", err)
			}
			return nil, fmt.Errorf("core: config %d (%v): %w", i, plan[i].Config, err)
		}
		w.Platform.Record(csp)
	}
	if phaseH != nil {
		phaseH.With("deploy").Observe(time.Since(deployStart).Seconds())
		cfgC.With("deploy").Add(int64(len(plan)))
	}

	if !opts.UseTruth {
		// Measurement is independent per configuration: fan out.
		c.Measurements = make([]*measure.CatchmentMeasurement, len(plan))
		errs := make([]error, len(plan))
		lost := make([]bool, len(plan))
		masker, _ := opts.MeasureFault.(MeasureMasker)
		var progressMu sync.Mutex // serializes Progress across workers
		done := 0
		measureStart := time.Now()
		runPoolSpans(csp, "campaign.measure.worker", workers, len(plan), func(i int, wsp *trace.Span) {
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			var msp *trace.Span
			if wsp != nil {
				msp = wsp.Child("campaign.measure")
				msp.Set(trace.Int("config", int64(i)))
			}
			if c.Outcomes[i] == nil {
				// Deployment was permanently lost; nothing to measure.
				c.Measurements[i] = measure.Unobserved(w.Graph.NumASes())
				msp.End()
				return
			}
			// Retry loop over injected measurement faults. Each attempt
			// consumes a pristine copy of the config's pre-split RNG, so a
			// successful retry yields the byte-identical measurement a
			// fault-free run would have produced.
			var m *measure.CatchmentMeasurement
			var err error
			for attempt := 0; ; attempt++ {
				if err = ctx.Err(); err != nil {
					break
				}
				if opts.MeasureFault != nil {
					if err = opts.MeasureFault.Measure(i, attempt); err != nil {
						if attempt+1 >= retry.attempts() {
							break
						}
						if retryC != nil {
							retryC.With("measure").Inc()
						}
						led.RecordRetry(provenance.RetryEvent{Config: i, Phase: "measure", Attempt: attempt, Error: err.Error()})
						if serr := sleepCtx(ctx, retry.Backoff(i, attempt)); serr != nil {
							err = serr
						} else {
							continue
						}
						break
					}
				}
				r := *rngs[i]
				m, err = w.MeasureOutcome(c.Outcomes[i], i, &r)
				if msp != nil {
					msp.Count("attempts", int64(attempt+1))
				}
				break
			}
			if err != nil && ctx.Err() == nil && retry.DegradeOnExhaust && i != 0 {
				// Capture window permanently lost: keep an all-unknown
				// measurement so imputation and clustering degrade instead of
				// aborting.
				led.RecordDegrade(provenance.DegradeEvent{Config: i, Phase: "measure", Error: err.Error()})
				m, err, lost[i] = measure.Unobserved(w.Graph.NumASes()), nil, true
			}
			if m != nil && masker != nil {
				if hidden := masker.Mask(i, m); hidden > 0 && msp != nil {
					msp.Count("masked_sources", int64(hidden))
				}
			}
			msp.End()
			c.Measurements[i] = m
			errs[i] = err
			if opts.Progress != nil {
				progressMu.Lock()
				done++
				opts.Progress(done, len(plan))
				progressMu.Unlock()
			}
		})
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: campaign canceled during measurement: %w", err)
		}
		for i, err := range errs {
			if err != nil {
				if i == 0 && retry.DegradeOnExhaust {
					return nil, fmt.Errorf("core: baseline measurement permanently lost (sources are derived from it): %w", err)
				}
				return nil, fmt.Errorf("core: config %d: %w", i, err)
			}
		}
		for i, l := range lost {
			if l && !c.IsIncomplete(i) {
				c.Incomplete = append(c.Incomplete, i)
				if incompleteC != nil {
					incompleteC.Inc()
				}
			}
		}
		sort.Ints(c.Incomplete)
		if phaseH != nil {
			phaseH.With("measure").Observe(time.Since(measureStart).Seconds())
			cfgC.With("measure").Add(int64(len(plan)))
		}
	} else if opts.Progress != nil {
		opts.Progress(len(plan), len(plan))
	}
	c.Elapsed = w.Platform.Elapsed()
	if k := opts.ConcurrentPrefixes; k > 1 {
		slots := (len(plan) + k - 1) / k
		c.Elapsed = time.Duration(slots) * w.Platform.Constraints().ConfigDuration
	}

	if opts.UseTruth {
		// Sources: every AS routed in the baseline configuration.
		base := c.Outcomes[0]
		for i := 0; i < w.Graph.NumASes(); i++ {
			if base.HasRoute(i) {
				c.Sources = append(c.Sources, i)
			}
		}
		c.Catchments = make([][]bgp.LinkID, len(plan))
		for cc, out := range c.Outcomes {
			row := make([]bgp.LinkID, len(c.Sources))
			if out == nil {
				// Permanently lost configuration: a uniform all-unknown row,
				// which cluster.Refine never splits on.
				for k := range row {
					row[k] = bgp.NoLink
				}
			} else {
				for k, src := range c.Sources {
					row[k] = out.CatchmentOf(src)
				}
			}
			c.Catchments[cc] = row
		}
		c.recordProvenance(led, true)
		return c, nil
	}

	c.Imputed = measure.Impute(c.Measurements)
	c.Sources = c.Imputed.Sources
	c.Catchments = c.Imputed.Catchments
	c.recordProvenance(led, false)
	return c, nil
}

// recordProvenance closes the campaign's provenance chain: dimensions,
// the final per-configuration catchment rows (the evidence leaves
// clustering consumed), and the campaign verdict — the final partition
// in canonical assignment form, which provenance.Replay re-derives
// purely from the recorded rows.
func (c *Campaign) recordProvenance(led *provenance.Ledger, useTruth bool) {
	if !led.Enabled() {
		return
	}
	led.RecordMeta(provenance.MetaEvent{
		Component:  "campaign",
		NumSources: len(c.Sources),
		NumConfigs: len(c.Plan),
		NumLinks:   c.World.Platform.NumLinks(),
		UseTruth:   useTruth,
	})
	for i, row := range c.Catchments {
		// Shared, not copied: the catchment matrix is immutable once the
		// campaign returns, and copying every row would dominate the
		// ledger's cost (scripts/bench.sh gates it at 5%).
		led.RecordRowShared(provenance.RowEvent{Config: i, Catchment: row, Incomplete: c.IsIncomplete(i)})
	}
	p := c.FinalPartition()
	led.RecordVerdict(provenance.VerdictEvent{
		Origin:   "campaign",
		Assign:   p.Assignments(),
		Clusters: p.NumClusters(),
	})
}

// runPoolSpans executes fn(0..n-1) across a bounded pool of workers and
// waits for all of them, with per-worker trace spans: when parent is a
// live span, each worker goroutine gets its own child span on a fresh
// track (so concurrent work renders as parallel flame-chart rows) and
// passes it to fn. The sequential path hands fn the parent itself. The
// work queue is pre-filled before any worker starts, so time-of-pickup
// minus phase start is a config's queue wait. fn must write only to its
// own index's slots.
func runPoolSpans(parent *trace.Span, workerName string, workers, n int, fn func(i int, wsp *trace.Span)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i, parent)
		}
		return
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wsp *trace.Span
			if parent != nil {
				wsp = parent.ChildTrack(workerName)
				defer wsp.End()
			}
			for i := range next {
				fn(i, wsp)
			}
		}()
	}
	wg.Wait()
}

// NumConfigs returns the number of deployed configurations.
func (c *Campaign) NumConfigs() int { return len(c.Plan) }

// NumSources returns the number of sources under analysis.
func (c *Campaign) NumSources() int { return len(c.Sources) }

// PartitionAfter returns the cluster partition after refining by the
// first n configurations (n = 0 gives the single all-sources cluster).
func (c *Campaign) PartitionAfter(n int) *cluster.Partition {
	if n > len(c.Catchments) {
		n = len(c.Catchments)
	}
	p := cluster.New(len(c.Sources))
	for i := 0; i < n; i++ {
		p.Refine(c.Catchments[i])
	}
	return p
}

// FinalPartition returns the partition after the whole campaign. The
// result is computed once and shared across calls (the provenance
// verdict and every downstream consumer need the same refinement):
// treat it as read-only and Clone before refining it further.
func (c *Campaign) FinalPartition() *cluster.Partition {
	c.finalOnce.Do(func() {
		c.finalPart = c.PartitionAfter(len(c.Catchments))
	})
	return c.finalPart
}

// MetricsTrajectory returns partition metrics after each configuration,
// computed incrementally (Fig. 4).
func (c *Campaign) MetricsTrajectory() []cluster.Metrics {
	p := cluster.New(len(c.Sources))
	out := make([]cluster.Metrics, 0, len(c.Catchments))
	for _, labels := range c.Catchments {
		p.Refine(labels)
		out = append(out, p.Summarize())
	}
	return out
}

// PhasePartitions returns the partition at the end of each plan phase
// (Fig. 3's three distributions).
func (c *Campaign) PhasePartitions() map[sched.Phase]*cluster.Partition {
	out := make(map[sched.Phase]*cluster.Partition, 3)
	for _, ph := range []sched.Phase{sched.PhaseLocations, sched.PhasePrepending, sched.PhasePoisoning} {
		end := sched.PhaseEnd(c.Plan, ph)
		if end > 0 {
			out[ph] = c.PartitionAfter(end)
		}
	}
	return out
}

// CatchmentTable renders configuration cfgIdx's catchments as the
// true-source-ASN -> ingress-link table an amp.Border consumes. Sources
// without a known catchment under the configuration are omitted (the
// border drops their traffic, as a network with no route would never
// receive it).
func (c *Campaign) CatchmentTable(cfgIdx int) map[uint32]uint8 {
	g := c.World.Graph
	table := make(map[uint32]uint8, len(c.Sources))
	for k, src := range c.Sources {
		if l := c.Catchments[cfgIdx][k]; l != bgp.NoLink {
			table[uint32(g.ASN(src))] = uint8(l)
		}
	}
	return table
}

// SubCampaign restricts the campaign to the configurations selected by
// keep (by index), reusing the already-measured catchments. This is how
// Fig. 5/6 emulate networks with fewer PoPs without re-deploying.
func (c *Campaign) SubCampaign(keep []int) *Campaign {
	sub := &Campaign{World: c.World, Sources: c.Sources}
	for _, i := range keep {
		sub.Plan = append(sub.Plan, c.Plan[i])
		sub.Outcomes = append(sub.Outcomes, c.Outcomes[i])
		if c.Measurements != nil {
			sub.Measurements = append(sub.Measurements, c.Measurements[i])
		}
		sub.Catchments = append(sub.Catchments, c.Catchments[i])
	}
	return sub
}

// ConfigsUsingOnlyLinks returns the indices of plan configurations whose
// announcements use only the given links (for footprint emulation).
func (c *Campaign) ConfigsUsingOnlyLinks(links []bgp.LinkID) []int {
	allowed := make(map[bgp.LinkID]bool, len(links))
	for _, l := range links {
		allowed[l] = true
	}
	var keep []int
	for i, pc := range c.Plan {
		ok := true
		for _, a := range pc.Config.Anns {
			if !allowed[a.Link] {
				ok = false
				break
			}
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return keep
}
