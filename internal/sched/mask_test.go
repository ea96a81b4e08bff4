package sched

import (
	"reflect"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
)

// maskCatchments: config 0 splits {0,1}|{2,3}, config 1 splits
// {0,2}|{1,3}, config 2 splits {0}|{1,2,3} less evenly.
var maskCatchments = [][]bgp.LinkID{
	{0, 0, 1, 1},
	{0, 1, 0, 1},
	{0, 1, 1, 1},
}

func TestNextGreedyMasked(t *testing.T) {
	p := cluster.New(4)
	if got := NextGreedy(p, maskCatchments, make([]bool, 3)); got != 0 {
		t.Fatalf("NextGreedy = %d, want 0 (tie toward the lowest index)", got)
	}
	if got := NextGreedy(p, maskCatchments, []bool{true, true, true}); got != -1 {
		t.Fatalf("all used: NextGreedy = %d, want -1", got)
	}
}

func TestNextGreedyVolumeMasked(t *testing.T) {
	p := cluster.New(4)
	vol := []float64{1, 1, 1, 1}
	used := make([]bool, 3)
	a := NextGreedyVolumeMasked(p, maskCatchments, vol, used, nil)
	blocked := make([]bool, 3)
	if b := NextGreedyVolumeMasked(p, maskCatchments, vol, used, blocked); a != b || a == -1 {
		t.Fatalf("nil mask %d, empty mask %d", a, b)
	}
	blocked[a] = true
	if got := NextGreedyVolumeMasked(p, maskCatchments, vol, used, blocked); got == a || got == -1 {
		t.Fatalf("masked pick = %d, must avoid blocked %d", got, a)
	}
}

func TestRotationWindow(t *testing.T) {
	// Budget-bounded rounds must cover every target over ceil(n/budget)
	// consecutive rounds, deterministically.
	const n, budget = 10, 4
	for base := uint64(0); base < 5; base++ {
		seen := make(map[int]bool)
		rounds := (n + budget - 1) / budget
		for r := 0; r < rounds; r++ {
			w := RotationWindow(n, budget, base+uint64(r))
			if len(w) != budget {
				t.Fatalf("round %d: window size %d, want %d", r, len(w), budget)
			}
			for _, i := range w {
				if i < 0 || i >= n {
					t.Fatalf("round %d: index %d out of range", r, i)
				}
				seen[i] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("base %d: %d/%d targets covered in %d rounds", base, len(seen), n, rounds)
		}
	}
	// Determinism: the same round always yields the same window.
	if !reflect.DeepEqual(RotationWindow(10, 4, 3), RotationWindow(10, 4, 3)) {
		t.Fatal("RotationWindow not deterministic")
	}
	// Unbounded budget (or zero) covers everything in one round.
	for _, b := range []int{0, 10, 99} {
		if w := RotationWindow(10, b, 7); len(w) != 10 {
			t.Fatalf("budget %d: window %v, want all 10", b, w)
		}
	}
	if RotationWindow(0, 4, 0) != nil {
		t.Fatal("n=0 must yield nil")
	}
}

func TestQuarantineMask(t *testing.T) {
	plan := []PlannedConfig{
		{Config: bgp.Config{Anns: []bgp.Announcement{{Link: 0}, {Link: 1}}}},
		{Config: bgp.Config{Anns: []bgp.Announcement{{Link: 2}}}},
		{Config: bgp.Config{Anns: []bgp.Announcement{{Link: 1}, {Link: 2}}}},
	}
	none := func(bgp.LinkID) bool { return false }
	if m := QuarantineMask(plan, none); m != nil {
		t.Fatalf("healthy links must yield a nil mask, got %v", m)
	}
	quarantine1 := func(l bgp.LinkID) bool { return l == 1 }
	if m := QuarantineMask(plan, quarantine1); !reflect.DeepEqual(m, []bool{true, false, true}) {
		t.Fatalf("mask = %v, want [true false true]", m)
	}
}
