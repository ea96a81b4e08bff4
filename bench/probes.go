package main

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/core"
	"spooftrack/internal/measure"
	"spooftrack/internal/sched"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stats"
	"spooftrack/internal/stream"
)

// Layer probes time each package's public functions from outside, on
// the same worlds the workloads use. They run in every traced run
// whatever workload it names, so each per-layer number is measured
// every time and can be compared across the five traced runs of one
// build. Which end-to-end metric each probe should move, and on which
// workload, is tabulated in README.md.

// probeOps is how many ops of each workload the probes run to collect
// the in-op timings (round waits, quiesce, campaign phases).
const probeOps = 2

// probeReps is how often the micro-probes replay a recorded attack.
const probeReps = 5

func layerProbes(m *metricSet, sc scale, catalogue, seed uint64) error {
	if err := probeAmp(m, sc, catalogue, seed); err != nil {
		return fmt.Errorf("amp: %w", err)
	}
	if err := probeStream(m, sc, catalogue, seed); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := probeShard(m, sc, catalogue, seed); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := probeMeasured(m, sc, seed); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	if err := probeTruth(m, sc, seed); err != nil {
		return fmt.Errorf("bgp: %w", err)
	}
	return nil
}

// runProbeOps runs and checks probeOps ops and returns the last result.
func runProbeOps(w workload) (any, error) {
	var last any
	for i := 0; i < probeOps; i++ {
		res, err := checkedOp(w)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

func probeAmp(m *metricSet, sc scale, catalogue, seed uint64) error {
	l, err := openLoopback(sc, catalogue, seed)
	if err != nil {
		return err
	}
	defer l.close()
	w := l.w
	if _, err := runProbeOps(l); err != nil {
		return err
	}
	m.set("amp.delivered_frac", float64(l.tappedTotal)/float64(l.sentTotal), "frac")

	// Border and honeypot alone: the tap only counts, so the CPU is the
	// packet plane's (both serve loops, the sender's writes, the kernel's
	// loopback path) with no pipeline behind it.
	camp := w.tracker.Campaign
	l.border.SetCatchments(camp.CatchmentTable(0))
	l.hp.SetTap(l.tap(func(amp.Event) {}))
	want := int64(sc.ampProbePackets)
	m0, c0 := readMem(), cpuTime()
	sent, err := l.deliver(nil, noSpan, want, time.Now().Add(localizeDeadline))
	c1, m1 := cpuTime(), readMem()
	l.hp.SetTap(nil)
	if err != nil {
		return err
	}
	if sent*99 > want*100 {
		return fmt.Errorf("%d packets sent for %d delivered", sent, want)
	}
	m.set("amp.pkt_cpu_us", us(c1-c0)/float64(want), "us")
	m.set("amp.mallocs_per_pkt", float64(m1.mallocs-m0.mallocs)/float64(want), "count")
	m.set("amp.border_dropped", float64(l.border.Dropped()), "count")
	m.set("amp.malformed", float64(l.hp.Malformed()), "count")

	// One table swap per configuration of the campaign.
	swaps := make([]float64, 0, camp.NumConfigs())
	for c := 0; c < camp.NumConfigs(); c++ {
		table := camp.CatchmentTable(c)
		t0 := time.Now()
		l.border.SetCatchments(table)
		swaps = append(swaps, us(time.Since(t0)))
	}
	m.set("amp.set_catchments_us_p50", median(swaps), "us")

	pkt := &amp.Packet{
		Type: amp.TypeRequest, IngressLink: amp.LinkUnset, TrueSrcAS: 64500,
		SpoofedSrc: netip.AddrFrom4([4]byte{198, 51, 100, 7}), Payload: l.payload,
	}
	const codecBatch = 20000
	var wire []byte
	marshal := make([]float64, 0, probeReps)
	unmarshal := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < codecBatch; i++ {
			if wire, err = pkt.Marshal(); err != nil {
				return err
			}
		}
		marshal = append(marshal, float64(time.Since(t0).Nanoseconds())/codecBatch)
		t0 = time.Now()
		for i := 0; i < codecBatch; i++ {
			if _, err = amp.Unmarshal(wire); err != nil {
				return err
			}
		}
		unmarshal = append(unmarshal, float64(time.Since(t0).Nanoseconds())/codecBatch)
	}
	m.set("amp.marshal_ns", median(marshal), "ns")
	m.set("amp.unmarshal_ns", median(unmarshal), "ns")
	return nil
}

// recordedAttack is one attack as the evaluator saw it: the rounds'
// per-link packet counts and the configuration each was measured under.
type recordedAttack struct {
	rounds   [][]int64
	deployed []int
}

// probeStream runs the direct workload for the pipeline's own timings,
// then hands one recorded attack to probeEvaluator.
func probeStream(m *metricSet, sc scale, catalogue, seed uint64) error {
	d, err := openDirect(sc, catalogue, seed)
	if err != nil {
		return err
	}
	last, err := runProbeOps(d)
	if err != nil {
		return err
	}
	m.set("stream.new_ms", median(d.newMS), "ms")
	m.set("stream.ingest_ns_per_event", float64(d.ingestCPU.Nanoseconds())/float64(d.ingested), "ns")
	m.set("stream.round_wait_ms_p50", median(d.roundWaitMS), "ms")
	m.set("stream.close_ms", median(d.closeMS), "ms")
	m.set("stream.batches_per_op", float64(d.batches)/probeOps, "count")
	m.set("stream.settle_excluded", float64(d.settled), "count")
	m.set("stream.dropped", float64(d.dropped), "count")
	a := last.(*localizeResult).attacks[0]
	probeEvaluator(m, d.w, recordedAttack{rounds: a.rounds, deployed: a.deployed})
	return nil
}

// probeEvaluator replays a recorded attack through the evaluator and,
// separately, through the three packages the evaluator's step is made
// of, timing each call.
func probeEvaluator(m *metricSet, w *localizeWorld, rec recordedAttack) {
	attr := w.attr
	n := len(attr.SourceASNs)
	var step, greedy, refine, addround []float64
	for r := 0; r < probeReps; r++ {
		ev := stream.NewEvaluator(attr, stream.EvalParams{})
		for _, pkts := range rec.rounds {
			t0 := time.Now()
			ev.Step(pkts, false, nil, nil, false)
			step = append(step, us(time.Since(t0)))
		}

		part := cluster.New(n)
		loc := spoof.NewIncrementalLocalizer(n)
		used := make([]bool, len(attr.Catchments))
		volumes := make([]float64, attr.NumLinks)
		est := make([]float64, n)
		for i, pkts := range rec.rounds {
			cfg := rec.deployed[i]
			used[cfg] = true
			row := attr.Catchments[cfg]
			for l, p := range pkts {
				volumes[l] = float64(p)
			}

			t0 := time.Now()
			loc.AddRound(row, volumes)
			cands := loc.Candidates(0)
			addround = append(addround, us(time.Since(t0)))

			t0 = time.Now()
			part.Refine(row)
			refine = append(refine, us(time.Since(t0)))

			// Each link's volume split evenly over the candidates behind
			// it, as the evaluator estimates it.
			onLink := make([]int, attr.NumLinks)
			for _, k := range cands {
				if l := row[k]; l != bgp.NoLink {
					onLink[l]++
				}
			}
			for k := range est {
				est[k] = 0
			}
			for _, k := range cands {
				if l := row[k]; l != bgp.NoLink {
					est[k] = volumes[l] / float64(onLink[l])
				}
			}
			t0 = time.Now()
			sched.NextGreedyVolumeMasked(part, attr.Catchments, est, used, nil)
			greedy = append(greedy, us(time.Since(t0)))
		}
	}
	m.set("stream.step_us_p50", median(step), "us")
	m.set("sched.greedy_us_p50", median(greedy), "us")
	m.set("cluster.refine_us_p50", median(refine), "us")
	m.set("spoof.addround_us_p50", median(addround), "us")

	camp := w.tracker.Campaign
	final := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		camp.PartitionAfter(camp.NumConfigs())
		final = append(final, ms(time.Since(t0)))
	}
	m.set("cluster.final_partition_ms", median(final), "ms")
}

func probeShard(m *metricSet, sc scale, catalogue, seed uint64) error {
	s, err := openSharded(sc, catalogue, seed)
	if err != nil {
		return err
	}
	if _, err := runProbeOps(s); err != nil {
		return err
	}
	m.set("shard.new_cluster_ms", median(s.newMS), "ms")
	m.set("shard.ingest_ns_per_event", float64(s.ingestCPU.Nanoseconds())/float64(s.ingested), "ns")
	m.set("shard.quiesce_ms_p50", median(s.quiesceMS), "ms")
	m.set("shard.step_us_p50", median(s.stepUS), "us")
	m.set("shard.steps_deferred", float64(s.deferred), "count")
	m.set("shard.steps_discarded", float64(s.discarded), "count")

	const lookups = 1 << 20
	ring := s.lastRing
	asns := s.w.attr.SourceASNs
	owner := make([]float64, 0, probeReps)
	sink := 0
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			sink += ring.OwnerIndex(uint32(asns[i%len(asns)]))
		}
		owner = append(owner, float64(time.Since(t0).Nanoseconds())/lookups)
	}
	if sink < 0 {
		return errors.New("ring returned no owner")
	}
	m.set("shard.ring_owner_ns", median(owner), "ns")
	return nil
}

// sampleEvery picks about want evenly spaced indices out of n.
func sampleEvery(n, want int) []int {
	stride := n / want
	if stride < 1 {
		stride = 1
	}
	var out []int
	for i := 0; i < n; i += stride {
		out = append(out, i)
	}
	return out
}

func probeMeasured(m *metricSet, sc scale, seed uint64) error {
	c, err := openMeasured(sc, seed)
	if err != nil {
		return err
	}
	last, err := runProbeOps(c)
	if err != nil {
		return err
	}
	m.set("core.build_world_ms", median(c.buildMS), "ms")
	m.set("core.plan_ms", median(c.planMS), "ms")
	m.set("core.deploy_phase_ms", median(c.deployMS), "ms")
	m.set("core.measure_phase_ms", median(c.measureMS), "ms")

	res := last.(*campaignResult)
	w, camp := res.world, res.camp
	sample := sampleEvery(camp.NumConfigs(), 40)

	var outcome []float64
	var outcomeTotal time.Duration
	m0 := readMem()
	for _, i := range sample {
		rng := stats.NewRNG(uint64(i) + 1)
		t0 := time.Now()
		if _, err := w.MeasureOutcome(camp.Outcomes[i], i, rng); err != nil {
			return err
		}
		d := time.Since(t0)
		outcome = append(outcome, ms(d))
		outcomeTotal += d
	}
	m1 := readMem()
	m.set("measure.outcome_ms_p50", median(outcome), "ms")
	m.set("measure.mallocs_per_config", float64(m1.mallocs-m0.mallocs)/float64(len(sample)), "count")

	// The MRT round trip is one step of MeasureOutcome; timed alone on
	// the same observations it gives the wire codec's share.
	var mrtTotal time.Duration
	for _, i := range sample {
		rng := stats.NewRNG(uint64(i) + 1)
		obs := measure.Collect(camp.Outcomes[i], w.Vantages, w.Space, w.Params.Noise, rng)
		t0 := time.Now()
		if err := measure.RoundTripMRT(&obs, w.Graph, uint32(i)); err != nil {
			return err
		}
		mrtTotal += time.Since(t0)
	}
	m.set("mrt.share_of_measure", float64(mrtTotal)/float64(outcomeTotal), "frac")

	impute := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		measure.Impute(camp.Measurements)
		impute = append(impute, ms(time.Since(t0)))
	}
	m.set("measure.impute_ms", median(impute), "ms")
	return nil
}

func probeTruth(m *metricSet, sc scale, seed uint64) error {
	gen := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		if _, err := generateGraph(truthGraphSeed, sc.truthASes, sc.truthASes >= internetMinASes); err != nil {
			return err
		}
		gen = append(gen, ms(time.Since(t0)))
	}
	m.set("topo.generate_ms", median(gen), "ms")

	c, err := openTruth(sc, seed)
	if err != nil {
		return err
	}
	m.set("topo.ases", float64(c.graph.NumASes()), "count")
	m.set("topo.edges", float64(c.graph.NumLinks()), "count")
	last, err := runProbeOps(c)
	if err != nil {
		return err
	}
	m.set("peering.cache_hit_frac", float64(c.hits)/float64(c.hits+c.misses), "frac")
	m.set("peering.sim_min_per_op", c.simMinutes, "min")
	plan := last.(*campaignResult).camp.Plan

	// Deployments in plan order on a platform whose cache is cold: what
	// one configuration costs the campaign, cache and delta path
	// included.
	fresh, err := core.BuildWorld(c.params)
	if err != nil {
		return err
	}
	deploy := make([]float64, 0, len(plan))
	for _, pc := range plan {
		t0 := time.Now()
		if _, err := fresh.Platform.PropagateAttempt(pc.Config, 0, false, nil); err != nil {
			return err
		}
		deploy = append(deploy, us(time.Since(t0)))
	}
	m.set("peering.deploy_us_p50", median(deploy), "us")

	// The engine alone: full propagation of a sample, then delta
	// propagation chained along the whole plan.
	engine := fresh.Platform.Engine()
	sample := sampleEvery(len(plan), 12)
	full := make([]float64, 0, len(sample))
	m0 := readMem()
	for _, i := range sample {
		t0 := time.Now()
		if _, err := engine.Propagate(plan[i].Config); err != nil {
			return err
		}
		full = append(full, ms(time.Since(t0)))
	}
	m1 := readMem()
	m.set("bgp.full_ms_p50", median(full), "ms")
	m.set("bgp.mallocs_per_propagate", float64(m1.mallocs-m0.mallocs)/float64(len(sample)), "count")

	prev, err := engine.Propagate(plan[0].Config)
	if err != nil {
		return err
	}
	var delta, seeds []float64
	fallbacks := 0
	for i := 1; i < len(plan); i++ {
		t0 := time.Now()
		out, info, err := engine.PropagateDeltaInfo(&prev, plan[i-1].Config, plan[i].Config)
		if err != nil {
			return err
		}
		delta = append(delta, us(time.Since(t0)))
		seeds = append(seeds, float64(info.Seeds))
		if !info.Mode.Incremental() {
			fallbacks++
		}
		prev = out
	}
	m.set("bgp.delta_us_p50", median(delta), "us")
	m.set("bgp.delta_seeds_p50", median(seeds), "count")
	m.set("bgp.delta_fallback_frac", float64(fallbacks)/float64(len(plan)-1), "frac")
	return nil
}
