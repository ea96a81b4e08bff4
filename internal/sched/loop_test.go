package sched

import (
	"reflect"
	"testing"
)

// TestLoopConvergedThenRemeasures: once the heaviest candidate cluster
// is within the threshold the loop has converged; Next without hints
// waits, and with hints it re-observes them under an unused, unblocked
// configuration.
func TestLoopConvergedThenRemeasures(t *testing.T) {
	l := NewLoop(maskCatchments, 0, 2)
	if l.Converged() {
		t.Fatal("converged before any fold")
	}
	// Link 1 is silent: sources 2 and 3 drop out and the top cluster is
	// {0,1}, within the threshold of 2.
	l.Fold(0, []float64{10, 0})
	if !reflect.DeepEqual(l.Candidates(), []int{0, 1}) || !l.Converged() {
		t.Fatalf("candidates %v, converged %v; want [0 1], true", l.Candidates(), l.Converged())
	}
	if cfg, reason, scores := l.Next(nil, nil, true); cfg != -1 || reason != "" || scores != nil {
		t.Fatalf("Next without hints = %d %q %v, want -1", cfg, reason, scores)
	}
	// Configurations 1 and 2 both re-observe source 0 on one link; the
	// lowest index wins, unless it is blocked.
	if cfg, reason, _ := l.Next(nil, []int{0}, true); cfg != 1 || reason != "remeasure" {
		t.Fatalf("Next with hints = %d %q, want 1 remeasure", cfg, reason)
	}
	if cfg, reason, _ := l.Next([]bool{false, true, false}, []int{0}, true); cfg != 2 || reason != "remeasure" {
		t.Fatalf("Next with hints, 1 blocked = %d %q, want 2 remeasure", cfg, reason)
	}
	if l.Current() != 0 {
		t.Fatalf("Next deployed: current %d, want 0", l.Current())
	}
}

// TestLoopWaitsOnBlockedSplits: while only blocked configurations can
// split the heaviest cluster the loop is not converged and deploys
// nothing, hints or not; once they are unblocked it splits, and the
// scores it returns are the greedy step's.
func TestLoopWaitsOnBlockedSplits(t *testing.T) {
	l := NewLoop(maskCatchments, 0, 1)
	l.Fold(0, []float64{10, 0}) // top cluster {0,1}, split by 1 and 2
	blocked := []bool{false, true, true}
	if cfg, reason, _ := l.Next(blocked, []int{0, 1}, true); cfg != -1 || reason != "" {
		t.Fatalf("Next with every split blocked = %d %q, want -1", cfg, reason)
	}
	if l.Converged() {
		t.Fatal("blocked configurations must still count as able to split")
	}
	cfg, reason, scores := l.Next(nil, []int{0, 1}, true)
	want, wantScores := NextGreedyVolumeScored(l.part, maskCatchments, l.estVol, l.used, nil, true)
	if cfg != want || reason != "split" || !reflect.DeepEqual(scores, wantScores) {
		t.Fatalf("Next = %d %q %v, want %d split %v", cfg, reason, scores, want, wantScores)
	}
	l.Deploy(cfg)
	l.Fold(cfg, []float64{10, 0})
	if !l.Converged() || len(l.Candidates()) != 1 {
		t.Fatalf("after the split: converged %v, candidates %v", l.Converged(), l.Candidates())
	}
}
