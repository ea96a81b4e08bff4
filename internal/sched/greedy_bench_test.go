package sched

import (
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stats"
)

// botnetRound builds the state the live loop is in when it asks for its
// third deployment of an eight-source botnet attack at the benchmark's
// scale — 1000 sources, 378 configurations, 7 links: the partition
// refined by the rounds folded so far, the volume estimate over the
// surviving candidates, and the used mask. Catchments are drawn per
// region (sources behind the same upstream mostly move together), which
// is what makes clusters shrink over rounds instead of shattering at
// once.
func botnetRound() (p *cluster.Partition, catchments [][]bgp.LinkID, estVol []float64, used []bool) {
	const n, nCfg, nLinks, regions, bots, rounds = 1000, 378, 7, 60, 8, 2
	rng := stats.NewRNG(24)
	region := make([]int, n)
	for k := range region {
		region[k] = rng.Intn(regions)
	}
	catchments = make([][]bgp.LinkID, nCfg)
	for c := range catchments {
		via := make([]bgp.LinkID, regions)
		for r := range via {
			via[r] = bgp.LinkID(rng.Intn(nLinks))
		}
		row := make([]bgp.LinkID, n)
		for k := range row {
			switch rng.Intn(20) {
			case 0:
				row[k] = bgp.NoLink
			case 1, 2:
				row[k] = bgp.LinkID(rng.Intn(nLinks))
			default:
				row[k] = via[region[k]]
			}
		}
		catchments[c] = row
	}
	botnet := rng.Perm(n)[:bots]

	p = cluster.New(n)
	loc := spoof.NewIncrementalLocalizer(n)
	used = make([]bool, nCfg)
	cfg := 0
	for round := 0; ; round++ {
		used[cfg] = true
		row := catchments[cfg]
		volumes := make([]float64, nLinks)
		for _, k := range botnet {
			if l := row[k]; l != bgp.NoLink {
				volumes[l] += 250
			}
		}
		loc.AddRound(row, volumes)
		p.Refine(row)
		estVol = estimateInto(nil, row, loc.Candidates(0), volumes)
		if round == rounds {
			return p, catchments, estVol, used
		}
		cfg = NextGreedyVolumeMasked(p, catchments, estVol, used, nil)
	}
}

// BenchmarkGreedyStep times one greedy volume decision — every unused
// configuration scored against a synthetic botnet round — which is
// nearly all of Loop.Next. It is the split-heavy worst case: its rows
// give every source a random link in 15 % of cells, so nearly every
// configuration splits nearly every volume-bearing cluster and the
// scorer counts members per label almost everywhere.
// BenchmarkGreedyStepRecorded has the shape the live loop sees:
//
//	go test ./internal/sched -run '^$' -bench GreedyStep -benchmem
func BenchmarkGreedyStep(b *testing.B) {
	p, catchments, estVol, used := botnetRound()
	bearing := 0
	for _, v := range estVol {
		if v != 0 {
			bearing++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	best := -1
	for i := 0; i < b.N; i++ {
		best = NextGreedyVolumeMasked(p, catchments, estVol, used, nil)
	}
	b.StopTimer()
	if best < 0 {
		b.Fatal("no configuration chosen")
	}
	b.ReportMetric(float64(bearing), "volume-sources")
	b.ReportMetric(float64(p.NumClusters()), "clusters")
}
