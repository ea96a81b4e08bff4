package measure

import (
	"fmt"
	"reflect"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// pairwiseImpute is the reference for Impute: the same §IV-d
// imputation, with smax found by scoring each source against every other
// one over the sampled configurations, O(S² · maxSimilarityConfigs) byte
// compares, keeping the first maximum in ascending source order.
func pairwiseImpute(ms []*CatchmentMeasurement) *ImputeResult {
	if len(ms) == 0 {
		return &ImputeResult{}
	}
	var sources []int
	for i, l := range ms[0].Catchment {
		if l != bgp.NoLink {
			sources = append(sources, i)
		}
	}
	s, c := len(sources), len(ms)
	res := &ImputeResult{
		Sources:    sources,
		Catchments: make([][]bgp.LinkID, c),
		Smax:       make([]int, s),
	}
	sig := make([][]byte, s)
	for k, src := range sources {
		res.Smax[k] = -1
		sig[k] = make([]byte, c)
		for cc := range ms {
			if l := ms[cc].Catchment[src]; l != bgp.NoLink {
				sig[k][cc] = byte(l) + 1
			}
		}
	}
	var sample []int
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
		for t := 0; t < s; t++ {
			if t == k {
				continue
			}
			score := 0
			for _, cc := range sample {
				if sig[k][cc] != 0 && sig[k][cc] == sig[t][cc] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = t, score
			}
		}
		return best
	}
	for cc := range ms {
		filled := make([]bgp.LinkID, s)
		for k, src := range sources {
			if l := ms[cc].Catchment[src]; l != bgp.NoLink {
				filled[k] = l
				continue
			}
			if res.Smax[k] == -1 {
				res.Smax[k] = smaxOf(k)
			}
			if t := res.Smax[k]; t >= 0 && sig[t][cc] != 0 {
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

// imputeCase describes a seeded random campaign: n ASes over c
// configurations, each cell observed with probability pObs in a catchment
// drawn from links[0 : links), except the ones the case's shape forces.
type imputeCase struct {
	name          string
	n, c, links   int
	pObs          float64
	pBaseline     float64 // probability an AS is a source
	blackoutEvery int     // every blackoutEvery-th configuration observes nothing (0: none)
	silent        int     // the first silent sources are observed in the baseline only
	sameRow       bool    // every source shares one catchment row: all scores tie
	highLinks     bool    // links are drawn from the top of the LinkID range
}

func (ic imputeCase) campaign(seed uint64) []*CatchmentMeasurement {
	rng := stats.NewRNG(seed)
	link := func() bgp.LinkID {
		l := rng.Intn(ic.links)
		if ic.highLinks {
			l = bgp.MaxLinks - 1 - l
		}
		return bgp.LinkID(l)
	}
	shared := make([]bgp.LinkID, ic.c)
	for cc := range shared {
		shared[cc] = link()
	}
	ms := make([]*CatchmentMeasurement, ic.c)
	for cc := range ms {
		ms[cc] = Unobserved(ic.n)
	}
	src := 0
	for i := 0; i < ic.n; i++ {
		if !rng.Bool(ic.pBaseline) {
			// Not a source: observed now and then, never in the baseline.
			for cc := 1; cc < ic.c; cc++ {
				if rng.Bool(ic.pObs) {
					ms[cc].Catchment[i] = link()
				}
			}
			continue
		}
		for cc := 0; cc < ic.c; cc++ {
			switch {
			case cc == 0:
			case src < ic.silent:
				continue
			case ic.blackoutEvery > 0 && cc%ic.blackoutEvery == 0:
				continue
			case !rng.Bool(ic.pObs):
				continue
			}
			l := link()
			if ic.sameRow {
				l = shared[cc]
			}
			ms[cc].Catchment[i] = l
		}
		src++
	}
	return ms
}

// TestImputeMatchesPairwise compares Impute with the pairwise reference
// on named shapes — full ties, where the lowest-index source must win;
// sources and configurations observed nowhere; one source or none; more
// configurations than are sampled; link ids at the top of the range —
// and on seeded random campaigns with few links, so near-ties are common.
func TestImputeMatchesPairwise(t *testing.T) {
	cases := []imputeCase{
		{name: "ties", n: 40, c: 12, links: 3, pObs: 1, pBaseline: 1, sameRow: true, silent: 3},
		{name: "ties with one link", n: 30, c: 20, links: 1, pObs: 0.5, pBaseline: 0.8},
		{name: "unobserved rows", n: 50, c: 30, links: 4, pObs: 0.8, pBaseline: 0.9, silent: 6, blackoutEvery: 5},
		{name: "no sources", n: 20, c: 8, links: 3, pObs: 0.8, pBaseline: 0},
		{name: "one source", n: 20, c: 8, links: 3, pObs: 0.5, pBaseline: 0.05},
		{name: "one configuration", n: 20, c: 1, links: 3, pObs: 0.5, pBaseline: 0.7},
		{name: "sampled configurations", n: 60, c: 300, links: 7, pObs: 0.85, pBaseline: 0.8},
		{name: "just past the sample", n: 40, c: maxSimilarityConfigs + 1, links: 2, pObs: 0.6, pBaseline: 0.9},
		{name: "top link ids", n: 50, c: 40, links: 6, pObs: 0.8, pBaseline: 0.9, highLinks: true},
		{name: "every link id", n: 200, c: 150, links: bgp.MaxLinks, pObs: 0.9, pBaseline: 0.9},
	}
	rng := stats.NewRNG(40)
	for trial := 0; trial < 200; trial++ {
		cases = append(cases, imputeCase{
			name:          fmt.Sprintf("random %d", trial),
			n:             1 + rng.Intn(60),
			c:             1 + rng.Intn(2*maxSimilarityConfigs),
			links:         1 + rng.Intn(8),
			pObs:          rng.Float64(),
			pBaseline:     rng.Float64(),
			blackoutEvery: rng.Intn(4) * 3,
			silent:        rng.Intn(3),
		})
	}
	imputed := 0
	for k, tc := range cases {
		ms := tc.campaign(uint64(k) + 1)
		got, want := Impute(ms), pairwiseImpute(ms)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Impute differs from the pairwise reference:\n got smax %v, imputed %d\nwant smax %v, imputed %d",
				tc.name, got.Smax, got.Imputed, want.Smax, want.Imputed)
		}
		imputed += want.Imputed
	}
	if imputed == 0 {
		t.Fatal("no case imputed a cell; the comparison covers nothing")
	}
	// In the tie case a silent source scores one (the baseline) against
	// every other source, so each takes the lowest index but its own.
	res := Impute(cases[0].campaign(1))
	if want := []int{1, 0, 0}; !reflect.DeepEqual(res.Smax[:3], want) {
		t.Fatalf("ties: silent sources took smax %v, want %v", res.Smax[:3], want)
	}
}

// measuredShape is the campaign-measured bench's imputation input in
// size: about 250 sources of 600 ASes over 363 configurations and 7
// links, one cell in fifty unobserved.
var measuredShape = imputeCase{n: 600, c: 363, links: 7, pObs: 0.98, pBaseline: 0.41}

// imputeSink keeps BenchmarkImpute's result live.
var imputeSink *ImputeResult

// BenchmarkImpute times visibility imputation over a campaign of the
// measured bench's size.
func BenchmarkImpute(b *testing.B) {
	ms := measuredShape.campaign(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imputeSink = Impute(ms)
	}
}
