// Package sched generates announcement plans (§III-A) and deployment
// schedules (§V-C).
//
// A plan is the ordered list of configurations the three techniques
// produce: (a) announcing from subsets of peering locations in decreasing
// size order, (b) adding AS-path prepending from each active location in
// turn, and (c) announcing from all locations while poisoning one
// neighbor of a directly connected transit provider. With 7 links,
// removing up to 3 and prepending singletons, this is the paper's
// 64 + 294 + 347 = 705-configuration campaign (§IV-a).
//
// Schedules order precomputed configurations for deployment at attack
// time: random baselines and the greedy strategy that picks, at each
// step, the configuration minimizing the resulting mean cluster size
// (Fig. 8).
package sched

import (
	"fmt"
	"sort"

	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

// Phase identifies which technique generated a configuration.
type Phase int

const (
	// PhaseLocations varies the set of announcement locations (§III-A-a).
	PhaseLocations Phase = iota
	// PhasePrepending adds AS-path prepending (§III-A-b).
	PhasePrepending
	// PhasePoisoning poisons neighbors of providers (§III-A-c).
	PhasePoisoning
	// PhaseCommunities controls export with provider action communities
	// (§VIII future work) — the library's fourth technique.
	PhaseCommunities
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseLocations:
		return "locations"
	case PhasePrepending:
		return "prepending"
	case PhasePoisoning:
		return "poisoning"
	case PhaseCommunities:
		return "communities"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// PlannedConfig is one configuration of a campaign plan with its
// generating phase.
type PlannedConfig struct {
	Config bgp.Config
	Phase  Phase
}

// removeUpTo is the most links the location phase withdraws: the
// paper's r-1 = 3, which leaves every source at least r = 4 routes.
const removeUpTo = 3

// prependDepth is how many times a prepending announcement repeats the
// origin (paper: 4).
const prependDepth = 4

// PlanParams controls plan generation. The location phase withdraws up
// to removeUpTo links and the prepending phase prepends prependDepth
// times, as the paper's campaign does.
type PlanParams struct {
	// NumLinks is the number of peering links L of the origin; it must
	// exceed removeUpTo.
	NumLinks int
	// PoisonTargets lists, per link, the ASNs to poison one at a time
	// on that link while announcing from all locations (neighbors of the
	// link's provider).
	PoisonTargets map[bgp.LinkID][]topo.ASN
}

// GeneratePlan produces the full three-phase plan. Within the location
// phase, subsets appear in decreasing size order and lexicographically
// within a size; the prepending phase follows the same subset order,
// prepending from each active location in turn; the poisoning phase
// iterates links then targets. The order matters: Fig. 4 plots cluster
// sizes in deployment order.
func GeneratePlan(p PlanParams) ([]PlannedConfig, error) {
	return generatePlan(p, removeUpTo, prependDepth)
}

// generatePlan is GeneratePlan withdrawing up to remove links and
// prepending depth times.
func generatePlan(p PlanParams, remove, depth int) ([]PlannedConfig, error) {
	if p.NumLinks < 1 || p.NumLinks > bgp.MaxLinks {
		return nil, fmt.Errorf("sched: NumLinks=%d out of [1,%d]", p.NumLinks, bgp.MaxLinks)
	}
	if remove < 0 || remove >= p.NumLinks {
		return nil, fmt.Errorf("sched: withdrawing up to %d of NumLinks=%d links leaves none", remove, p.NumLinks)
	}
	var plan []PlannedConfig

	// Phase a: subsets of links in decreasing size order.
	var subsets [][]bgp.LinkID
	for removed := 0; removed <= remove; removed++ {
		size := p.NumLinks - removed
		for _, s := range combinations(p.NumLinks, size) {
			subsets = append(subsets, s)
			plan = append(plan, PlannedConfig{Config: configFromLinks(s, nil, 0), Phase: PhaseLocations})
		}
	}

	// Phase b: for each subset, prepend from each active location in
	// turn.
	for _, s := range subsets {
		for _, prependAt := range s {
			plan = append(plan, PlannedConfig{
				Config: configFromLinks(s, []bgp.LinkID{prependAt}, depth),
				Phase:  PhasePrepending,
			})
		}
	}

	// Phase c: announce everywhere, poisoning one provider neighbor at
	// a time on the link behind which it sits.
	all := make([]bgp.LinkID, p.NumLinks)
	for i := range all {
		all[i] = bgp.LinkID(i)
	}
	links := make([]bgp.LinkID, 0, len(p.PoisonTargets))
	for l := range p.PoisonTargets {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, l := range links {
		targets := append([]topo.ASN(nil), p.PoisonTargets[l]...)
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, target := range targets {
			cfg := configFromLinks(all, nil, 0)
			for k := range cfg.Anns {
				if cfg.Anns[k].Link == l {
					cfg.Anns[k].Poison = []topo.ASN{target}
				}
			}
			plan = append(plan, PlannedConfig{Config: cfg, Phase: PhasePoisoning})
		}
	}
	return plan, nil
}

// PhaseCounts returns how many configurations each phase contributes.
func PhaseCounts(plan []PlannedConfig) map[Phase]int {
	out := make(map[Phase]int, 3)
	for _, pc := range plan {
		out[pc.Phase]++
	}
	return out
}

// PhaseEnd returns the index one past the last configuration of the
// phase, assuming the canonical ordering produced by GeneratePlan.
func PhaseEnd(plan []PlannedConfig, p Phase) int {
	end := 0
	for i, pc := range plan {
		if pc.Phase <= p {
			end = i + 1
		}
	}
	return end
}

// CommunityPlan generates one configuration per (link, provider
// neighbor) pair: announce from all links, tagging the link's
// announcement with a no-export action community instructing the link's
// provider not to export toward that neighbor. This induces the same
// kind of edge removal as poisoning (§III-A-c) but does not depend on
// loop prevention and does not trip route-leak filters — it depends
// instead on the provider implementing action communities.
func CommunityPlan(numLinks int, providerOf map[bgp.LinkID]topo.ASN, targets map[bgp.LinkID][]topo.ASN) []PlannedConfig {
	all := make([]bgp.LinkID, numLinks)
	for i := range all {
		all[i] = bgp.LinkID(i)
	}
	links := make([]bgp.LinkID, 0, len(targets))
	for l := range targets {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	var plan []PlannedConfig
	for _, l := range links {
		operator, ok := providerOf[l]
		if !ok {
			continue
		}
		ts := append([]topo.ASN(nil), targets[l]...)
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for _, target := range ts {
			cfg := configFromLinks(all, nil, 0)
			for k := range cfg.Anns {
				if cfg.Anns[k].Link == l {
					cfg.Anns[k].Communities = []bgp.Community{{
						Operator: operator,
						Action:   bgp.ActNoExportTo,
						Target:   target,
					}}
				}
			}
			plan = append(plan, PlannedConfig{Config: cfg, Phase: PhaseCommunities})
		}
	}
	return plan
}

// configFromLinks builds a configuration announcing from the given
// links, prepending depth times on the links in prepend.
func configFromLinks(links, prepend []bgp.LinkID, depth int) bgp.Config {
	pset := make(map[bgp.LinkID]bool, len(prepend))
	for _, l := range prepend {
		pset[l] = true
	}
	cfg := bgp.Config{Anns: make([]bgp.Announcement, len(links))}
	for i, l := range links {
		cfg.Anns[i] = bgp.Announcement{Link: l}
		if pset[l] {
			cfg.Anns[i].Prepend = depth
		}
	}
	return cfg
}

// combinations enumerates all size-k subsets of {0..n-1} in
// lexicographic order.
func combinations(n, k int) [][]bgp.LinkID {
	if k < 0 || k > n {
		return nil
	}
	var out [][]bgp.LinkID
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		s := make([]bgp.LinkID, k)
		for i, v := range idx {
			s[i] = bgp.LinkID(v)
		}
		out = append(out, s)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
