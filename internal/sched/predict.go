package sched

import (
	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/topo"
)

// Predictor estimates catchments without deploying announcements, using
// a textbook Gao-Rexford model of the topology (no policy noise, no
// loop-prevention quirks). §V-C observes that most ASes follow the
// best-relationship + shortest-path model (Fig. 9), so such a predictor
// can pre-rank configurations and reduce measurement load.
type Predictor struct {
	engine *bgp.Engine
	cache  *bgp.OutcomeCache
}

// NewPredictor builds a predictor for the origin over the graph.
func NewPredictor(g *topo.Graph, origin bgp.Origin) (*Predictor, error) {
	// A fixed seed keeps tiebreaks deterministic; with zero noise the
	// seed only affects equal-length tie-breaking.
	eng, err := bgp.NewEngine(g, origin, bgp.Params{Seed: 1})
	if err != nil {
		return nil, err
	}
	return &Predictor{engine: eng, cache: bgp.NewOutcomeCache()}, nil
}

// Predict returns the predicted catchment vector for a configuration.
// The predictor's outcome cache keeps base configurations and derives
// every other prediction from the cheapest of them in one delta step.
func (p *Predictor) Predict(cfg bgp.Config) ([]bgp.LinkID, error) {
	out, err := p.cache.Propagate(p.engine, cfg)
	if err != nil {
		return nil, err
	}
	vec := out.CatchmentVector()
	out.Release()
	return vec, nil
}

// TargetedPoisonPlan implements the paper's future-work idea of
// poisoning distant ASes to split large clusters (§V-B): for every
// cluster of at least minClusterSize sources, find the transit AS most
// shared by the members' data paths (excluding the members themselves
// and the direct providers) and generate a configuration announcing from
// all links while poisoning it on the members' current ingress link.
func TargetedPoisonPlan(out *bgp.Outcome, part *cluster.Partition, sources []int, minClusterSize, numLinks int) []PlannedConfig {
	g := out.Graph()
	memberSets := part.Members()
	var plan []PlannedConfig
	seen := make(map[string]bool)
	for _, members := range memberSets {
		if len(members) < minClusterSize {
			continue
		}
		// Count upstream transit ASes across member paths. A shared
		// upstream splits the cluster when only part of the members
		// route through it, so any intermediate hop is a candidate —
		// including ones that are themselves members.
		counts := make(map[int]int)
		linkVotes := make(map[bgp.LinkID]int)
		for _, k := range members {
			src := sources[k]
			dp := out.DataPath(src)
			if dp == nil {
				continue
			}
			linkVotes[out.CatchmentOf(src)]++
			// Skip the source itself and the final provider hop.
			for h := 1; h < len(dp)-1; h++ {
				counts[dp[h]]++
			}
		}
		target, best := -1, 0
		for as, c := range counts {
			if c > best || (c == best && (target == -1 || as < target)) {
				target, best = as, c
			}
		}
		link, bestVotes := bgp.NoLink, 0
		for l, v := range linkVotes {
			if v > bestVotes || (v == bestVotes && l < link) {
				link, bestVotes = l, v
			}
		}
		if target == -1 || link == bgp.NoLink {
			continue
		}
		all := make([]bgp.LinkID, numLinks)
		for i := range all {
			all[i] = bgp.LinkID(i)
		}
		cfg := configFromLinks(all, nil, 0)
		for i := range cfg.Anns {
			if cfg.Anns[i].Link == link {
				cfg.Anns[i].Poison = []topo.ASN{g.ASN(target)}
			}
		}
		key := cfg.String()
		if !seen[key] {
			seen[key] = true
			plan = append(plan, PlannedConfig{Config: cfg, Phase: PhasePoisoning})
		}
	}
	return plan
}
