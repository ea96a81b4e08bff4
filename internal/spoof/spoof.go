// Package spoof implements the paper's spoofed-traffic study (§III-C,
// §V-D): placing sources of spoofed traffic across ASes (uniform, Pareto
// 80/20, or a single source, as in Fig. 10), modeling per-peering-link
// honeypot volume measurements, attributing volume to clusters, and
// localizing the candidate source set by correlating traffic across
// configurations.
//
// All quantities are indexed by source position: the index of an AS in
// the campaign's source list (the ASes observed in the baseline
// configuration), matching package cluster.
package spoof

import (
	"fmt"
	"sort"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/stats"
)

// Placement is a spoofed-traffic source placement: Weight[k] is the
// traffic volume originated by source k (proportional to the number of
// compromised hosts there, per §V-D's model).
type Placement struct {
	Weight []float64
}

// TotalVolume returns the sum of all weights.
func (p Placement) TotalVolume() float64 {
	t := 0.0
	for _, w := range p.Weight {
		t += w
	}
	return t
}

// PlaceUniform distributes nBots spoofing hosts uniformly at random
// across the nSources source ASes.
func PlaceUniform(rng *stats.RNG, nSources, nBots int) Placement {
	w := make([]float64, nSources)
	for b := 0; b < nBots; b++ {
		w[rng.Intn(nSources)]++
	}
	return Placement{Weight: w}
}

// PlacePareto distributes nBots hosts across source ASes with per-AS
// attractiveness drawn from a Pareto distribution shaped so that 80% of
// hosts land in 20% of ASes (§V-D).
func PlacePareto(rng *stats.RNG, nSources, nBots int) Placement {
	attract := make([]float64, nSources)
	total := 0.0
	for i := range attract {
		attract[i] = rng.Pareto(1, stats.ParetoShape8020)
		total += attract[i]
	}
	w := make([]float64, nSources)
	for b := 0; b < nBots; b++ {
		target := rng.Float64() * total
		acc := 0.0
		for i, a := range attract {
			acc += a
			if target < acc {
				w[i]++
				break
			}
		}
	}
	return Placement{Weight: w}
}

// PlaceSingle puts all traffic in one uniformly chosen source AS — the
// common amplification-attack case reported by AmpPot (§V-D).
func PlaceSingle(rng *stats.RNG, nSources int) Placement {
	w := make([]float64, nSources)
	w[rng.Intn(nSources)] = 1
	return Placement{Weight: w}
}

// LinkVolumes models the honeypot measurement for one configuration:
// the spoofed-traffic volume arriving on each peering link is the sum of
// the weights of the sources routed to it. Sources with no catchment
// (bgp.NoLink) contribute nowhere. numLinks sizes the result.
func LinkVolumes(catchment []bgp.LinkID, p Placement, numLinks int) []float64 {
	if len(catchment) != len(p.Weight) {
		panic(fmt.Sprintf("spoof: %d catchments for %d sources", len(catchment), len(p.Weight)))
	}
	out := make([]float64, numLinks)
	for k, l := range catchment {
		if l != bgp.NoLink && int(l) < numLinks {
			out[l] += p.Weight[k]
		}
	}
	return out
}

// TrafficBySizePoint is one point of Fig. 10: the cumulative fraction of
// spoofed-traffic volume originated in clusters of size at most Size.
type TrafficBySizePoint struct {
	Size    int
	CumFrac float64
}

// TrafficBySize computes the Fig. 10 curve for one placement over one
// partition.
func TrafficBySize(part *cluster.Partition, p Placement) []TrafficBySizePoint {
	total := p.TotalVolume()
	if total == 0 {
		return nil
	}
	sizes := part.Sizes()
	volBySize := make(map[int]float64)
	for k, w := range p.Weight {
		if w > 0 {
			volBySize[sizes[part.ClusterOf(k)]] += w
		}
	}
	keys := make([]int, 0, len(volBySize))
	for s := range volBySize {
		keys = append(keys, s)
	}
	sort.Ints(keys)
	out := make([]TrafficBySizePoint, 0, len(keys))
	acc := 0.0
	for _, s := range keys {
		acc += volBySize[s]
		out = append(out, TrafficBySizePoint{Size: s, CumFrac: acc / total})
	}
	return out
}

// AverageTrafficBySize averages Fig. 10 curves over many placements,
// evaluating each curve at every integer size up to maxSize.
func AverageTrafficBySize(curves [][]TrafficBySizePoint, maxSize int) []TrafficBySizePoint {
	if len(curves) == 0 {
		return nil
	}
	out := make([]TrafficBySizePoint, maxSize)
	for s := 1; s <= maxSize; s++ {
		sum := 0.0
		for _, curve := range curves {
			sum += evalCurve(curve, s)
		}
		out[s-1] = TrafficBySizePoint{Size: s, CumFrac: sum / float64(len(curves))}
	}
	return out
}

// evalCurve returns the cumulative fraction at the given size (step
// function semantics).
func evalCurve(curve []TrafficBySizePoint, size int) float64 {
	frac := 0.0
	for _, pt := range curve {
		if pt.Size > size {
			break
		}
		frac = pt.CumFrac
	}
	return frac
}

// Localize correlates per-configuration link volumes with catchments to
// identify candidate spoofing sources (§III's core idea): a source
// remains a candidate only if, in every configuration, the link its
// catchment maps to actually carried spoofed traffic. volumes[c][l] is
// the measured volume on link l in configuration c; catchments[c][k] is
// source k's catchment. Sources with unknown catchment in a
// configuration are not eliminated by it.
func Localize(catchments [][]bgp.LinkID, volumes [][]float64) []int {
	return LocalizeTolerant(catchments, volumes, 0)
}

// LocalizeTolerant is Localize with slack for imperfect catchment maps
// (§V-C's stale-measurement reuse): a source stays a candidate as long
// as its catchment link carried traffic in all but at most maxMisses of
// the configurations where its catchment is known. maxMisses = 0 is
// exactly Localize. The miss rule itself lives in
// IncrementalLocalizer.AddRound; this folds every row through it.
func LocalizeTolerant(catchments [][]bgp.LinkID, volumes [][]float64, maxMisses int) []int {
	if len(catchments) == 0 {
		return nil
	}
	il := NewIncrementalLocalizer(len(catchments[0]))
	for c := range catchments {
		il.AddRound(catchments[c], volumes[c])
	}
	return il.Candidates(maxMisses)
}
