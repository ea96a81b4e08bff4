//go:build !race

package cluster

import "testing"

// Under the race detector sync.Pool drops a share of what is put into
// it, so the warm-path allocation assertions are !race only.

func TestWarmRefineAllocatesNothing(t *testing.T) {
	p := New(6)
	l := labels(0, 0, 1, 1, -1, 2)
	if got := testing.AllocsPerRun(100, func() { p.Refine(l) }); got != 0 {
		t.Fatalf("a warm Refine allocates %v, want 0", got)
	}
}

func TestWarmNumClustersAfterAllocatesNothing(t *testing.T) {
	p := New(6)
	p.Refine(labels(0, 0, 1, 1, -1, 2))
	l := labels(0, 1, 0, 1, 2, -1)
	if got := testing.AllocsPerRun(100, func() { p.NumClustersAfter(l) }); got != 0 {
		t.Fatalf("a warm NumClustersAfter allocates %v, want 0", got)
	}
}

func TestWarmScorerAllocatesNothing(t *testing.T) {
	p := New(6)
	p.Refine(labels(0, 0, 1, 1, -1, 2))
	l := labels(0, 1, 0, 1, 2, -1)
	volume := []float64{1, 0, 0, 2.5, 0, 0}
	var s Scorer
	if got := testing.AllocsPerRun(100, func() {
		s.Reset(p, volume)
		s.Score(l)
	}); got != 0 {
		t.Fatalf("a warm Reset + Score allocates %v, want 0", got)
	}
}
