// Package measure implements the paper's measurement substrate and
// inference pipeline (§IV-b/c/d): BGP route collectors (standing in for
// RouteViews and RIPE RIS), RIPE-Atlas-style traceroute synthesis with
// realistic noise (unresponsive hops, IXP segments, IP-to-AS mapping
// errors), the hop-repair pipeline, catchment inference with
// BGP-over-traceroute priority and majority voting, and source-visibility
// imputation via most-similar sources (smax).
package measure

import (
	"cmp"
	"slices"
	"sort"

	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// VantageSet is the fixed set of measurement vantage points used across
// a campaign: collector ASes whose selected AS-paths are visible on
// public feeds, and probe ASes that can issue traceroutes toward the
// announced prefix.
type VantageSet struct {
	// Collectors are dense indices of ASes peering with route
	// collectors, each once, in ascending order.
	Collectors []int
	// Probes are dense indices of ASes hosting traceroute probes.
	Probes []int
}

// ChooseVantages selects a deterministic vantage set. Collectors are
// biased toward large transit networks (RouteViews/RIS peers are mostly
// transit and tier-1 ASes); probes are a mix of stub and transit networks
// (RIPE Atlas probes sit mainly in edge networks). An AS can host both.
func ChooseVantages(g *topo.Graph, seed uint64, nCollectors, nProbes int) VantageSet {
	rng := stats.NewRNG(seed ^ 0x7a9e5)

	// Rank ASes by customer count for the collector bias.
	byCone := make([]int, g.NumASes())
	customers := make([]int, g.NumASes())
	for i := range byCone {
		byCone[i] = i
		customers[i] = g.NumCustomers(i)
	}
	slices.SortFunc(byCone, func(a, b int) int {
		if ca, cb := customers[a], customers[b]; ca != cb {
			return cmp.Compare(cb, ca)
		}
		return cmp.Compare(a, b)
	})

	v := VantageSet{}
	// Collectors: top transit by customer degree for the first 60%, the
	// rest sampled uniformly.
	nTop := nCollectors * 6 / 10
	if nTop > len(byCone) {
		nTop = len(byCone)
	}
	used := make(map[int]bool)
	for _, i := range byCone[:nTop] {
		v.Collectors = append(v.Collectors, i)
		used[i] = true
	}
	for len(v.Collectors) < nCollectors && len(used) < g.NumASes() {
		i := rng.Intn(g.NumASes())
		if !used[i] {
			used[i] = true
			v.Collectors = append(v.Collectors, i)
		}
	}

	// Probes: RIPE Atlas probes sit overwhelmingly in networks run by
	// operators — multihomed edge networks and transit ASes — rather
	// than single-homed leaf stubs. 75% of probes go to ASes with at
	// least two upstream choices; the rest are uniform.
	var connected []int
	for i := 0; i < g.NumASes(); i++ {
		if g.Degree(i)-customers[i] >= 2 { // providers plus peers
			connected = append(connected, i)
		}
	}
	usedP := make(map[int]bool)
	wantConnected := nProbes * 3 / 4
	for len(v.Probes) < wantConnected && len(usedP) < len(connected) {
		i := connected[rng.Intn(len(connected))]
		if !usedP[i] {
			usedP[i] = true
			v.Probes = append(v.Probes, i)
		}
	}
	for len(v.Probes) < nProbes && len(usedP) < g.NumASes() {
		i := rng.Intn(g.NumASes())
		if !usedP[i] {
			usedP[i] = true
			v.Probes = append(v.Probes, i)
		}
	}
	sort.Ints(v.Collectors)
	sort.Ints(v.Probes)
	return v
}
