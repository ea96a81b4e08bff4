package main

import (
	"fmt"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/metrics"
	"spooftrack/internal/topo"
)

// The two campaign workloads run the offline preparation an origin AS
// does before any attack: build the world, generate the plan, deploy
// and measure every configuration, partition the sources. Both build a
// fresh world per op, so the platform's outcome cache starts cold and
// stays on — bypassing it would also bypass the delta path production
// takes from one configuration to the next.

// campaign is either workload; measured selects the full
// collect/infer/impute pipeline, otherwise catchments are read off the
// routing outcomes.
type campaign struct {
	graph    *topo.Graph
	params   core.WorldParams
	measured bool

	// firstSum is the first op's catchment digest; every later op of
	// the same inputs must reproduce it.
	firstSum checksum
	haveSum  bool

	// probe accumulates what the per-layer report needs across ops.
	buildMS, planMS, deployMS, measureMS, finalMS []float64
	hits, misses                                  uint64
	simMinutes                                    float64
}

// campaignResult is one op's outcome.
type campaignResult struct {
	world *core.World
	camp  *core.Campaign
	// clusters is the size of the final partition.
	clusters int
}

// openMeasured prepares campaign-measured: a small graph, traceroute
// probes and collectors placed by the seed, every collector feed pushed
// through the MRT wire codec.
func openMeasured(sc scale, seed uint64) (*campaign, error) {
	g, err := generateGraph(measuredGraphSeed, sc.measuredASes, false)
	if err != nil {
		return nil, err
	}
	p := worldParams(g, seed)
	p.NumProbes = sc.measuredProbes
	p.NumCollectors = sc.measuredCollectors
	p.MaxPoisonTargets = sc.measuredPoison
	p.WireFeeds = true
	return &campaign{graph: g, params: p, measured: true}, nil
}

// openTruth prepares campaign-truth: an internet-shaped graph, no
// measurement — propagation and the outcome cache do the work.
func openTruth(sc scale, seed uint64) (*campaign, error) {
	g, err := generateGraph(truthGraphSeed, sc.truthASes, sc.truthASes >= internetMinASes)
	if err != nil {
		return nil, err
	}
	p := worldParams(g, seed)
	p.MaxPoisonTargets = sc.truthPoison
	return &campaign{graph: g, params: p}, nil
}

// worldParams seeds a world on a fixed graph. The routing engine's
// policy draws (who ignores poison, who pins a neighbor) stay fixed
// too: they move a campaign's cost by several percent from seed to
// seed, and the spread the benchmark is held to is taken across seeds.
// The seed places the vantages and drives the measurement noise.
func worldParams(g *topo.Graph, seed uint64) core.WorldParams {
	p := core.DefaultWorldParams(seed)
	p.Graph = g
	ep := bgp.DefaultParams(enginePolicySeed)
	p.Engine = &ep
	return p
}

func (c *campaign) close() {}

func (c *campaign) op(tr *tracer, parent spanID) (any, error) {
	t0 := time.Now()
	sp := tr.start(parent, "core.build_world")
	w, err := core.BuildWorld(c.params)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c.buildMS = append(c.buildMS, ms(time.Since(t0)))

	t0 = time.Now()
	sp = tr.start(parent, "core.plan")
	plan, err := w.DefaultPlan()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c.planMS = append(c.planMS, ms(time.Since(t0)))

	// The program times its own phases; the harness only reads them.
	reg := metrics.NewRegistry()
	sp = tr.start(parent, "core.run_campaign")
	camp, err := w.RunCampaign(plan, core.CampaignOptions{
		Parallelism: 1,
		UseTruth:    !c.measured,
		Metrics:     reg,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	phases := reg.HistogramVec("core_campaign_phase_seconds", []string{"phase"})
	deploy := time.Duration(phases.With("deploy").Sum() * float64(time.Second))
	measure := time.Duration(phases.With("measure").Sum() * float64(time.Second))
	tr.inside(sp, "peering.deploy_phase", 0, deploy)
	if c.measured {
		tr.inside(sp, "measure.measure_phase", deploy, measure)
	}
	c.deployMS = append(c.deployMS, ms(deploy))
	c.measureMS = append(c.measureMS, ms(measure))

	t0 = time.Now()
	sp = tr.start(parent, "cluster.final_partition")
	part := camp.FinalPartition()
	tr.end(sp)
	c.finalMS = append(c.finalMS, ms(time.Since(t0)))

	hits, misses := w.Platform.CacheStats()
	c.hits += hits
	c.misses += misses
	c.simMinutes = (w.Platform.Elapsed() + w.Platform.ConvergenceTotal()).Minutes()
	return &campaignResult{world: w, camp: camp, clusters: part.NumClusters()}, nil
}

// truthSamples is how many configurations the truth check re-propagates
// from scratch, outside the cache and the delta path.
const truthSamples = 3

func (c *campaign) check(r any) (opCounts, error) {
	res := r.(*campaignResult)
	camp := res.camp
	sum := newChecksum()
	for _, row := range camp.Catchments {
		for _, l := range row {
			sum.add(int(l))
		}
	}
	oc := opCounts{deploys: camp.NumConfigs(), work: int64(camp.NumConfigs()), sum: sum}
	if len(camp.Incomplete) != 0 {
		return oc, fmt.Errorf("%d configurations lost", len(camp.Incomplete))
	}
	if camp.NumSources() == 0 || res.clusters < 2 {
		return oc, fmt.Errorf("degenerate campaign: %d sources in %d clusters", camp.NumSources(), res.clusters)
	}
	if !c.haveSum {
		c.firstSum, c.haveSum = sum, true
	} else if sum != c.firstSum {
		return oc, fmt.Errorf("catchment checksum %#x, first op's was %#x", uint64(sum), uint64(c.firstSum))
	}
	if c.measured {
		return oc, nil
	}
	// Truth catchments came through the outcome cache and delta
	// propagation; a full propagation of the same configuration must
	// agree source by source.
	engine := res.world.Platform.Engine()
	for s := 0; s < truthSamples; s++ {
		i := (s + 1) * camp.NumConfigs() / (truthSamples + 1)
		full, err := engine.Propagate(camp.Plan[i].Config)
		if err != nil {
			return oc, err
		}
		for k, src := range camp.Sources {
			if got, want := camp.Catchments[i][k], full.CatchmentOf(src); got != want {
				return oc, fmt.Errorf("config %d source %d: catchment %d, full propagation says %d", i, src, got, want)
			}
		}
	}
	return oc, nil
}
