//go:build !race

package sched

import (
	"testing"

	"spooftrack/internal/cluster"
)

// The allocation assertions live behind !race: under the race detector
// sync.Pool drops a share of what is put into it, on purpose, so a warm
// step would still allocate now and then.

// TestWarmGreedyStepAllocatesNothing: the unscored step is the scored
// one minus the score slice, and everything else it needs comes from
// the pooled scorer.
func TestWarmGreedyStepAllocatesNothing(t *testing.T) {
	p := cluster.New(4)
	vol := []float64{4, 1, 1, 2}
	used := make([]bool, 3)
	if got := testing.AllocsPerRun(100, func() {
		NextGreedyVolumeMasked(p, maskCatchments, vol, used, nil)
	}); got != 0 {
		t.Fatalf("a warm unscored greedy step allocates %v, want 0", got)
	}
}

func TestNextRemeasureAllocatesNothing(t *testing.T) {
	used := make([]bool, 3)
	hints := []int{0, 1, 3}
	if got := testing.AllocsPerRun(100, func() {
		NextRemeasure(maskCatchments, hints, used, nil)
	}); got != 0 {
		t.Fatalf("NextRemeasure allocates %v with hints present, want 0", got)
	}
}
