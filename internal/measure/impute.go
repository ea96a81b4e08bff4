package measure

import "spooftrack/internal/bgp"

// Imputation implements §IV-d (source visibility): the analysis is
// limited to the sources observed in the first (baseline) configuration,
// and for configurations where a source s was not observed, s is
// assigned the catchment of smax — the other source whose catchment s
// appeared in most frequently across configurations where s was
// observed.

// maxSimilarityConfigs bounds the number of configurations sampled when
// computing co-catchment frequencies; beyond this, configs are sampled
// evenly, so a long campaign costs no more per source than a
// 128-configuration one.
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
	s := base.ObservedCount()
	var sources []int // nil when no AS is a source
	if s > 0 {
		sources = make([]int, 0, s)
	}
	for i, l := range base.Catchment {
		if l != bgp.NoLink {
			sources = append(sources, i)
		}
	}
	c := len(ms)
	res := &ImputeResult{
		Sources:    sources,
		Catchments: make([][]bgp.LinkID, c),
		Smax:       make([]int, s),
	}
	for k := range res.Smax {
		res.Smax[k] = -1
	}

	// sig[k*c+cc] = observed catchment of source k in config cc, encoded
	// as link+1 in a byte (0 = unobserved); a LinkID is below
	// bgp.MaxLinks, so the code fits.
	sig := make([]byte, s*c)
	for k, src := range sources {
		row := sig[k*c : (k+1)*c]
		for cc := range row {
			if l := ms[cc].Catchment[src]; l != bgp.NoLink {
				row[cc] = byte(l) + 1
			}
		}
	}

	var sim *similarity
	cells := make([]bgp.LinkID, c*s)
	for cc := 0; cc < c; cc++ {
		filled := cells[cc*s : (cc+1)*s : (cc+1)*s]
		for k, src := range sources {
			if l := ms[cc].Catchment[src]; l != bgp.NoLink {
				filled[k] = l
				continue
			}
			if res.Smax[k] == -1 {
				if sim == nil {
					sim = newSimilarity(sig, s, c)
				}
				res.Smax[k] = sim.smaxOf(k)
			}
			t := res.Smax[k]
			if t >= 0 && sig[t*c+cc] != 0 {
				filled[k] = bgp.LinkID(sig[t*c+cc] - 1)
				res.Imputed++
			} else {
				filled[k] = bgp.NoLink
			}
		}
		res.Catchments[cc] = filled
	}
	return res
}

// similarity finds smax over the sampled configurations. The sources
// are bucketed per (sample position, catchment code) in one
// counting-sort layout: bucket b = j*codes + code-1 lists, in ascending
// source order, the sources whose catchment in sample j has that code,
// as order[start[b]:start[b+1]]. A source's co-catchment count with every
// other source is then one pass over its own buckets, not a compare
// against each of them.
type similarity struct {
	// m is the number of sampled configurations, codes the largest
	// catchment code among them.
	m, codes int
	// key[k*m+j] is source k's code in sample j (0 = unobserved).
	key   []byte
	start []int32
	order []int32
	// score is the count row smaxOf fills, one cell per source.
	score []int32
}

// newSimilarity samples the configurations of sig (s sources × c
// configurations, row-major) and buckets the sources.
func newSimilarity(sig []byte, s, c int) *similarity {
	m := min(c, maxSimilarityConfigs)
	key := make([]byte, s*m)
	codes := 0
	for k := 0; k < s; k++ {
		row := sig[k*c : (k+1)*c]
		for j := 0; j < m; j++ {
			// Evenly spaced when c exceeds the sample; every one otherwise.
			v := row[j*c/m]
			key[k*m+j] = v
			codes = max(codes, int(v))
		}
	}
	sim := &similarity{m: m, codes: codes, key: key, score: make([]int32, s)}
	// Count each bucket, take inclusive prefix sums (start[b] = the end
	// of bucket b), then fill every bucket back to front visiting the
	// sources in descending order: each comes out ascending, and start[b]
	// ends at its first slot.
	nb := m * codes
	sim.start = make([]int32, nb+1)
	for i, v := range key {
		if v != 0 {
			sim.start[(i%m)*codes+int(v)-1]++
		}
	}
	for b := 1; b < nb; b++ {
		sim.start[b] += sim.start[b-1]
	}
	if nb > 0 {
		sim.start[nb] = sim.start[nb-1]
	}
	sim.order = make([]int32, sim.start[nb])
	for k := s - 1; k >= 0; k-- {
		for j, v := range key[k*m : (k+1)*m] {
			if v != 0 {
				b := j*codes + int(v) - 1
				sim.start[b]--
				sim.order[sim.start[b]] = int32(k)
			}
		}
	}
	return sim
}

// smaxOf returns the source other than k whose catchment matches k's in
// the most sampled configurations where k was observed, the lowest index
// among equals; -1 when there is no other source.
func (sim *similarity) smaxOf(k int) int {
	clear(sim.score)
	for j, v := range sim.key[k*sim.m : (k+1)*sim.m] {
		if v != 0 {
			b := j*sim.codes + int(v) - 1
			for _, t := range sim.order[sim.start[b]:sim.start[b+1]] {
				sim.score[t]++
			}
		}
	}
	best, bestScore := -1, int32(-1)
	for t, score := range sim.score {
		if t != k && score > bestScore {
			best, bestScore = t, score
		}
	}
	return best
}
