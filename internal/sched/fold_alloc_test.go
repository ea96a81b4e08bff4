//go:build !race

package sched

import (
	"testing"

	"spooftrack/internal/bgp"
)

// TestWarmFoldMembersAllocateNothing: a warm Fold allocates nothing,
// however large the top cluster whose members it lists to test for a
// split: it refills the one candidate buffer the loop keeps. Behind
// !race, under which sync.Pool drops the refinement tables Fold borrows.
func TestWarmFoldMembersAllocateNothing(t *testing.T) {
	const n = 1000
	for _, size := range []int{2, n} {
		// Configuration 0 puts the first size sources on link 0 and the
		// rest on link 1; configuration 1, never deployed, splits them.
		rows := [][]bgp.LinkID{make([]bgp.LinkID, n), make([]bgp.LinkID, n)}
		for k := 0; k < n; k++ {
			if k >= size {
				rows[0][k] = 1
			}
			rows[1][k] = bgp.LinkID(k % 2)
		}
		l := NewLoop(rows, 0, 1)
		volumes := []float64{10, 0}
		l.Fold(0, volumes)
		if len(l.Candidates()) != size || l.Converged() {
			t.Fatalf("size %d: %d candidates, converged %v", size, len(l.Candidates()), l.Converged())
		}
		if got := testing.AllocsPerRun(100, func() { l.Fold(0, volumes) }); got != 0 {
			t.Fatalf("a warm Fold with a top cluster of %d allocates %v, want 0", size, got)
		}
	}
}
