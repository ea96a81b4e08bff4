package measure

import "spooftrack/internal/bgp"

// Imputation implements §IV-d (source visibility): the analysis is
// limited to the sources observed in the first (baseline) configuration,
// and for configurations where a source s was not observed, s is
// assigned the catchment of smax — the other source whose catchment s
// appeared in most frequently across configurations where s was
// observed.

// maxSimilarityConfigs bounds the number of configurations sampled when
// computing pairwise co-catchment frequencies; beyond this, configs are
// sampled evenly. This keeps imputation O(S² · maxSimilarityConfigs)
// instead of O(S² · C) for long campaigns.
const maxSimilarityConfigs = 128

// ImputeResult is the output of the visibility-imputation step.
type ImputeResult struct {
	// Sources are the dense indices of ASes observed in the baseline
	// (first) measurement, in ascending order.
	Sources []int
	// Catchments[c][k] is the (possibly imputed) catchment of
	// Sources[k] in configuration c; bgp.NoLink if still unknown (smax
	// also unobserved).
	Catchments [][]bgp.LinkID
	// Imputed counts how many (config, source) cells were filled via
	// smax.
	Imputed int
	// Smax[k] is the index (into Sources) of the most-similar source
	// used to fill Sources[k], or -1 if never needed.
	Smax []int
}

// Impute runs visibility imputation over a campaign's measurements.
// ms[c].Catchment holds per-AS inferred catchments for configuration c;
// ms[0] is the baseline (full anycast, no prepending or poisoning).
func Impute(ms []*CatchmentMeasurement) *ImputeResult {
	if len(ms) == 0 {
		return &ImputeResult{}
	}
	base := ms[0]
	var sources []int
	for i, obs := range base.Observed {
		if obs {
			sources = append(sources, i)
		}
	}
	s := len(sources)
	c := len(ms)
	res := &ImputeResult{
		Sources:    sources,
		Catchments: make([][]bgp.LinkID, c),
		Smax:       make([]int, s),
	}
	for k := range res.Smax {
		res.Smax[k] = -1
	}

	// sig[k][cc] = observed catchment of source k in config cc, encoded
	// as link+1 in a byte (0 = unobserved). Catchment ids fit a byte for
	// any realistic peering footprint.
	sig := make([][]byte, s)
	sigCells := make([]byte, s*c)
	for k, src := range sources {
		row := sigCells[k*c : (k+1)*c : (k+1)*c]
		for cc := 0; cc < c; cc++ {
			if l := ms[cc].Catchment[src]; l != bgp.NoLink {
				row[cc] = byte(l) + 1
			}
		}
		sig[k] = row
	}

	// Sampled config positions for similarity computation.
	sample := make([]int, 0, maxSimilarityConfigs)
	if c <= maxSimilarityConfigs {
		for cc := 0; cc < c; cc++ {
			sample = append(sample, cc)
		}
	} else {
		for k := 0; k < maxSimilarityConfigs; k++ {
			sample = append(sample, k*c/maxSimilarityConfigs)
		}
	}

	smaxOf := func(k int) int {
		best, bestScore := -1, -1
		row := sig[k]
		for t := 0; t < s; t++ {
			if t == k {
				continue
			}
			other := sig[t]
			score := 0
			for _, cc := range sample {
				if row[cc] != 0 && row[cc] == other[cc] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = t, score
			}
		}
		return best
	}

	cells := make([]bgp.LinkID, c*s)
	for cc := 0; cc < c; cc++ {
		filled := cells[cc*s : (cc+1)*s : (cc+1)*s]
		for k, src := range sources {
			if l := ms[cc].Catchment[src]; l != bgp.NoLink {
				filled[k] = l
				continue
			}
			if res.Smax[k] == -1 {
				res.Smax[k] = smaxOf(k)
			}
			t := res.Smax[k]
			if t >= 0 && sig[t][cc] != 0 {
				filled[k] = bgp.LinkID(sig[t][cc] - 1)
				res.Imputed++
			} else {
				filled[k] = bgp.NoLink
			}
		}
		res.Catchments[cc] = filled
	}
	return res
}
