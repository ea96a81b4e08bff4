// Package core orchestrates the paper's system end-to-end: it builds a
// world (topology + PEERING platform + address space + measurement
// vantages), generates the three-phase announcement plan (§III-A, §IV-a),
// deploys it configuration by configuration, runs the measurement and
// inference pipeline per configuration (§IV-b/c), imputes source
// visibility (§IV-d), and exposes the catchment matrix and cluster
// partitions the evaluation section is built on.
package core

import (
	"fmt"
	"sort"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/measure"
	"spooftrack/internal/peering"
	"spooftrack/internal/sched"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// WorldParams sizes the simulated world.
type WorldParams struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Topo configures the synthetic Internet; zero value means
	// topo.DefaultGenParams(Seed).
	Topo *topo.GenParams
	// Graph, when non-nil, is used verbatim instead of generating a
	// topology from Topo — the -topo-file path. Separate processes that
	// load the same serialized graph (topo.ReadCAIDA) and share Seed
	// build byte-identical worlds, which is what lets a sharded
	// deployment agree on one attribution matrix.
	Graph *topo.Graph
	// Engine configures routing realism; zero value means
	// bgp.DefaultParams(Seed).
	Engine *bgp.Params
	// NumCollectors is the number of BGP feed vantage ASes
	// (RouteViews + RIS peers).
	NumCollectors int
	// NumProbes is the number of traceroute probe ASes (the paper used
	// 1600 RIPE Atlas probes).
	NumProbes int
	// Noise configures traceroute imperfections.
	Noise measure.NoiseParams
	// MaxPoisonTargets caps the poisoning phase of the default plan
	// (the paper identified 347 provider neighbors).
	MaxPoisonTargets int
	// WireFeeds routes every configuration's collector observations
	// through the MRT/BGP-UPDATE wire codec (package mrt) and back, as
	// real RouteViews/RIS consumption would.
	WireFeeds bool
}

// mapperErrRate is the fraction of address blocks whose IP-to-AS data
// is wrong.
const mapperErrRate = 0.02

// DefaultWorldParams mirrors the paper's experimental scale: a topology
// big enough that the measurement dataset covers on the order of the
// paper's 1885 ASes, 7 PoPs, ~1600 probes, and a ~350-target poison
// phase.
func DefaultWorldParams(seed uint64) WorldParams {
	return WorldParams{
		Seed:             seed,
		NumCollectors:    250,
		NumProbes:        1600,
		Noise:            measure.DefaultNoise(),
		MaxPoisonTargets: 347,
	}
}

// World is a fully built simulated environment.
type World struct {
	Params   WorldParams
	Graph    *topo.Graph
	Platform *peering.Platform
	Space    *addr.Space
	Mapper   addr.Mapper
	Vantages measure.VantageSet
	Infer    measure.InferInput
}

// BuildWorld constructs a world from parameters.
func BuildWorld(p WorldParams) (*World, error) {
	g := p.Graph
	if g == nil {
		tp := topo.DefaultGenParams(p.Seed)
		if p.Topo != nil {
			tp = *p.Topo
		}
		var err error
		g, err = topo.Generate(tp)
		if err != nil {
			return nil, fmt.Errorf("core: topology: %w", err)
		}
	}
	ep := bgp.DefaultParams(p.Seed)
	if p.Engine != nil {
		ep = *p.Engine
	}
	plat, err := peering.New(g, peering.Options{EngineParams: ep})
	if err != nil {
		return nil, fmt.Errorf("core: platform: %w", err)
	}
	space := addr.Allocate(g)
	mapper, err := addr.NewNoisyMapper(space, mapperErrRate, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: mapper: %w", err)
	}
	v := measure.ChooseVantages(g, p.Seed, p.NumCollectors, p.NumProbes)
	w := &World{
		Params:   p,
		Graph:    g,
		Platform: plat,
		Space:    space,
		Mapper:   mapper,
		Vantages: v,
	}
	w.Infer = measure.InferInput{
		Graph:     g,
		Mapper:    mapper,
		OriginASN: peering.PEERINGASN,
		LinkOf:    plat.ProviderLinks(),
	}
	return w, nil
}

// DefaultPlan generates the paper's three-phase campaign for this world:
// 64 location configurations, 294 prepending configurations, and a
// poisoning phase targeting neighbors of the platform's providers,
// capped at MaxPoisonTargets and spread round-robin across links
// preferring well-connected neighbors (which §III-A-c argues move the
// most sources).
func (w *World) DefaultPlan() ([]sched.PlannedConfig, error) {
	return sched.GeneratePlan(sched.PlanParams{NumLinks: w.Platform.NumLinks(), PoisonTargets: w.poisonTargets()})
}

// poisonTargets selects provider-neighbor poison targets per link.
func (w *World) poisonTargets() map[bgp.LinkID][]topo.ASN {
	g := w.Graph
	neighbors := w.Platform.ProviderNeighbors()
	links := make([]bgp.LinkID, 0, len(neighbors))
	for l := range neighbors {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })

	// Per link, order neighbors by degree descending (stable by ASN).
	ordered := make(map[bgp.LinkID][]topo.ASN, len(links))
	for _, l := range links {
		ns := append([]int(nil), neighbors[l]...)
		sort.Slice(ns, func(a, b int) bool {
			da, db := g.Degree(ns[a]), g.Degree(ns[b])
			if da != db {
				return da > db
			}
			return g.ASN(ns[a]) < g.ASN(ns[b])
		})
		asns := make([]topo.ASN, len(ns))
		for i, idx := range ns {
			asns[i] = g.ASN(idx)
		}
		ordered[l] = asns
	}

	cap := w.Params.MaxPoisonTargets
	if cap <= 0 {
		cap = 1 << 30
	}
	out := make(map[bgp.LinkID][]topo.ASN, len(links))
	total := 0
	for round := 0; total < cap; round++ {
		advanced := false
		for _, l := range links {
			if total >= cap {
				break
			}
			if round < len(ordered[l]) {
				out[l] = append(out[l], ordered[l][round])
				total++
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	return out
}

// rngFor derives a deterministic child generator for a labeled purpose.
func (w *World) rngFor(label uint64) *stats.RNG {
	return stats.NewRNG(w.Params.Seed ^ (label * 0x9e3779b97f4a7c15))
}

// MeasureOutcome runs the full §IV collection-and-inference pipeline for
// one routing outcome: collector paths (optionally through the MRT wire
// codec), noisy traceroutes, repair, and catchment inference. configIdx
// stamps the simulated capture time of wire feeds.
func (w *World) MeasureOutcome(out *bgp.Outcome, configIdx int, rng *stats.RNG) (*measure.CatchmentMeasurement, error) {
	feedTime := uint32(configIdx) * 70 * 60
	return measure.Measure(out, w.Vantages, w.Space, w.Params.Noise, rng, w.Infer, w.Params.WireFeeds, feedTime)
}
