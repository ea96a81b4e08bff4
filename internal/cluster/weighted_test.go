package cluster

import (
	"math/rand"
	"testing"

	"spooftrack/internal/bgp"
)

// weightedMeanSizeAfter scores one configuration on a fresh Scorer.
func weightedMeanSizeAfter(p *Partition, labels []bgp.LinkID, volume []float64) float64 {
	var s Scorer
	s.Reset(p, volume)
	return s.Score(labels)
}

// refWeightedMeanAfter is the reference implementation Scorer.Score
// must match: materialize the refined copy, then take the volume-
// weighted mean of each source's cluster size.
func refWeightedMeanAfter(p *Partition, labels []bgp.LinkID, volume []float64) float64 {
	refined := p.RefinedCopy(labels)
	sizes := refined.Sizes()
	total, acc := 0.0, 0.0
	for k := 0; k < refined.NumSources(); k++ {
		v := 0.0
		if k < len(volume) {
			v = volume[k]
		}
		total += v
		acc += v * float64(sizes[refined.ClusterOf(k)])
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

func TestWeightedMeanSizeAfterMatchesRefinedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// reused carries whatever the previous trial left in it: a partition
	// of another size, other volumes, a table grown for other clusters.
	var reused Scorer
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		p := New(n)
		// Pre-refine by a couple of random label rows so the partition
		// has structure before the scored row is applied.
		for r := 0; r < rng.Intn(3); r++ {
			pre := make([]bgp.LinkID, n)
			for k := range pre {
				pre[k] = bgp.LinkID(rng.Intn(3) - 1) // -1..1, includes NoLink
			}
			p.Refine(pre)
		}
		labels := make([]bgp.LinkID, n)
		for k := range labels {
			labels[k] = bgp.LinkID(rng.Intn(4) - 1)
		}
		volume := make([]float64, n)
		for k := range volume {
			volume[k] = float64(rng.Intn(5))
		}
		got := weightedMeanSizeAfter(p, labels, volume)
		want := refWeightedMeanAfter(p, labels, volume)
		if got != want {
			t.Fatalf("trial %d (n=%d): Score = %v, RefinedCopy reference = %v", trial, n, got, want)
		}
		reused.Reset(p, volume)
		for pass := 0; pass < 2; pass++ {
			if got := reused.Score(labels); got != want {
				t.Fatalf("trial %d (n=%d) pass %d: reused Scorer = %v, fresh = %v", trial, n, pass, got, want)
			}
		}
	}
}

func TestWeightedMeanSizeAfterShortVolume(t *testing.T) {
	// A volume slice shorter than the source count weights the missing
	// tail at zero, matching the reference.
	p := New(4)
	labels := []bgp.LinkID{0, 0, 1, 1}
	volume := []float64{1, 1}
	got := weightedMeanSizeAfter(p, labels, volume)
	if want := refWeightedMeanAfter(p, labels, volume); got != want {
		t.Fatalf("short volume: got %v, want %v", got, want)
	}
	if got != 2 {
		t.Fatalf("short volume: got %v, want 2 (both weighted sources land in the size-2 cluster)", got)
	}
}

func TestWeightedMeanSizeAfterZeroVolume(t *testing.T) {
	p := New(3)
	if got := weightedMeanSizeAfter(p, []bgp.LinkID{0, 1, 0}, []float64{0, 0, 0}); got != 0 {
		t.Fatalf("zero volume: got %v, want 0", got)
	}
}

func TestWeightedMeanSizeAfterPanicsOnMismatch(t *testing.T) {
	p := New(3)
	p.Refine([]bgp.LinkID{0, 0, 1})
	volume := []float64{1, 2, 3}
	var s Scorer
	s.Reset(p, volume)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on label/source length mismatch")
			}
		}()
		s.Score([]bgp.LinkID{0})
	}()
	// The scorer that panicked is still clean.
	labels := []bgp.LinkID{0, 1, 1}
	if got, want := s.Score(labels), refWeightedMeanAfter(p, labels, volume); got != want {
		t.Fatalf("Score after a mismatch panic = %v, want %v", got, want)
	}
}
