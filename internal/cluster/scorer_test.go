package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spooftrack/internal/bgp"
)

// foldScore is the definition Scorer.Score must match bit for bit:
// refine a copy, sum each refined cluster's volume over its members in
// ascending source order, and fold the clusters in the order Refine
// numbers them, which is first occurrence.
func foldScore(p *Partition, labels []bgp.LinkID, volume []float64) float64 {
	refined := p.RefinedCopy(labels)
	vols := make([]float64, refined.NumClusters())
	for k, c := range refined.assign {
		if k < len(volume) {
			vols[c] += volume[k]
		}
	}
	sizes := refined.Sizes()
	total, acc := 0.0, 0.0
	for c, v := range vols {
		total += v
		acc += v * float64(sizes[c])
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// scorerCase is one partition, volume vector and row of labels.
type scorerCase struct {
	name   string
	p      *Partition
	volume []float64
	labels []bgp.LinkID
}

// checkBits scores c on s and on a fresh Scorer and fails, naming the
// case, unless both match foldScore to the bit. Between its scores of
// c.labels, s also scores a row that splits nothing, so a split that
// leaves its parts' terms behind shows.
func checkBits(t *testing.T, s *Scorer, c scorerCase) {
	t.Helper()
	check := func(sc *Scorer, labels []bgp.LinkID) {
		t.Helper()
		want := foldScore(c.p, labels, c.volume)
		if got := sc.Score(labels); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Score = %v (%#x), reference fold = %v (%#x)",
				c.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	var fresh Scorer
	fresh.Reset(c.p, c.volume)
	check(&fresh, c.labels)
	s.Reset(c.p, c.volume)
	check(s, c.labels)
	check(s, make([]bgp.LinkID, len(c.labels)))
	check(s, c.labels)
}

// refined returns a partition of n sources refined by each row in turn.
func refined(n int, rows ...[]bgp.LinkID) *Partition {
	p := New(n)
	for _, row := range rows {
		p.Refine(row)
	}
	return p
}

// ladderOf reports whether the scorer Reset to p and volume gave the
// group holding source k a ladder; it fails when k is in no group of
// two or more members.
func ladderOf(t *testing.T, p *Partition, volume []float64, k int) bool {
	t.Helper()
	var s Scorer
	s.Reset(p, volume)
	for _, i := range s.multi {
		g := s.groups[i]
		for _, m := range s.k[g.start:g.end] {
			if int(m) == k {
				return g.ladder >= 0
			}
		}
	}
	t.Fatalf("source %d is in no group of two or more members", k)
	return false
}

func TestScoreBitsMatchFold(t *testing.T) {
	third := 1.0 / 3
	ulp := math.Nextafter(third, 1)
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	// Two clusters, {0..3} and {4..7}.
	halves := func() *Partition { return refined(8, labels(0, 0, 0, 0, 1, 1, 1, 1)) }
	cases := []scorerCase{
		{name: "whole groups", p: halves(),
			volume: []float64{1, 2, 0, 3, 4, 0, 5, 6},
			labels: labels(2, 2, 2, 2, -1, -1, -1, -1)},
		{name: "split groups", p: halves(),
			volume: []float64{1, 2, 0, 3, 4, 0, 5, 6},
			labels: labels(0, 1, 0, 2, 3, 3, -1, 0)},
		{name: "singleton groups", p: refined(5, labels(0, 1, 2, 3, 3)),
			volume: []float64{0.1, 0, 0.7, 0.2, 0},
			labels: labels(1, 1, 1, 0, 1)},
		// Seven additions of 0.1 are not 7*0.1, so only a ladder built
		// by repeated addition matches.
		{name: "equal shares mixed with zero volume (ladder)", p: New(12),
			volume: []float64{0.1, 0.1, 0, 0.1, 0.1, 0.1, 0.1, 0, 0.1, 0.1, 0, 0.1},
			labels: labels(0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0)},
		{name: "shares one ulp apart (no ladder)", p: halves(),
			volume: []float64{third, ulp, third, 0, third, third, ulp, third},
			labels: labels(0, 1, 0, 0, 1, 1, 0, 1)},
		{name: "labels -2 and -128 share NoLink's slot", p: halves(),
			volume: []float64{1, 1, 1, 1, 2, 2, 2, 2},
			labels: labels(-1, -2, -128, -1, -128, 0, -2, 0)},
		{name: "volume shorter than the sources", p: halves(),
			volume: []float64{1, 1, 0, 1, 1},
			labels: labels(0, 1, 0, 1, 1, 0, 0, 1)},
		{name: "-0.0 volumes", p: halves(),
			volume: []float64{negZero, negZero, negZero, negZero, negZero, 2, negZero, 2},
			labels: labels(0, 1, 0, 1, 1, 0, 0, 1)},
		{name: "+Inf volume", p: halves(),
			volume: []float64{1, inf, 1, 0, 1, 1, 0, 1},
			labels: labels(0, 1, 0, 1, 1, 0, 0, 1)},
	}
	var s Scorer
	for _, c := range cases {
		checkBits(t, &s, c)
	}
	if p, v := cases[3].p, cases[3].volume; !ladderOf(t, p, v, 0) {
		t.Fatalf("%s: a group of equal shares has no ladder", cases[3].name)
	}
	if p, v := cases[4].p, cases[4].volume; ladderOf(t, p, v, 0) || ladderOf(t, p, v, 4) {
		t.Fatalf("%s: a group whose shares differ by one ulp has a ladder", cases[4].name)
	}
}

// TestScoreBitsMatchFoldRandom sweeps seeded partitions, labels and
// volume shapes; a failure names the trial and its shape.
func TestScoreBitsMatchFoldRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	label := func() bgp.LinkID {
		switch rng.Intn(10) {
		case 0:
			return -2
		case 1:
			return -128
		case 2:
			return bgp.NoLink
		}
		return bgp.LinkID(rng.Intn(4))
	}
	shapes := []string{"equal shares", "one ulp apart", "mixed", "-0.0 and +Inf", "short"}
	var s Scorer
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(120)
		p := New(n)
		for r := rng.Intn(3); r > 0; r-- {
			row := make([]bgp.LinkID, n)
			for k := range row {
				row[k] = bgp.LinkID(rng.Intn(3))
			}
			p.Refine(row)
		}
		shape := shapes[trial%len(shapes)]
		share := rng.Float64() * 100
		volume := make([]float64, n)
		for k := range volume {
			if rng.Intn(3) == 0 {
				continue
			}
			switch shape {
			case "equal shares", "short":
				volume[k] = share
			case "one ulp apart":
				volume[k] = share
				if rng.Intn(4) == 0 {
					volume[k] = math.Nextafter(share, math.Inf(1))
				}
			case "mixed":
				volume[k] = rng.Float64() * 100
			case "-0.0 and +Inf":
				volume[k] = []float64{share, math.Copysign(0, -1), math.Inf(1)}[rng.Intn(3)]
			}
		}
		if shape == "short" {
			volume = volume[:rng.Intn(n+1)]
		}
		// Every other trial gives each cluster one label and moves about
		// one member in twenty off it, as the live loop's rows do: most
		// groups stay whole.
		clustered := trial%2 == 1
		perCluster := make([]bgp.LinkID, p.NumClusters())
		for c := range perCluster {
			perCluster[c] = label()
		}
		row := make([]bgp.LinkID, n)
		for k := range row {
			row[k] = label()
			if clustered && rng.Intn(20) > 0 {
				row[k] = perCluster[p.ClusterOf(k)]
			}
		}
		name := fmt.Sprintf("trial %d (%s, clustered labels %v, n=%d)", trial, shape, clustered, n)
		checkBits(t, &s, scorerCase{name: name, p: p, volume: volume, labels: row})
	}
}
