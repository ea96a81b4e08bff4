package spoof

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// randomRounds draws a catchment matrix and its volumes with every edge
// the miss-count rule distinguishes: unknown catchments (bgp.NoLink), a
// link id past the end of the round's volume row, silent links, volumes
// at and below the 1e-12 floor, and one round in which no link carried
// anything.
func randomRounds(rng *stats.RNG) ([][]bgp.LinkID, [][]float64) {
	nSources, nConfigs, nLinks := 1+rng.Intn(40), 1+rng.Intn(12), 1+rng.Intn(6)
	silent := rng.Intn(nConfigs)
	catchments := make([][]bgp.LinkID, nConfigs)
	volumes := make([][]float64, nConfigs)
	for c := range catchments {
		catchments[c] = make([]bgp.LinkID, nSources)
		for k := range catchments[c] {
			switch r := rng.Intn(10); {
			case r == 0:
				catchments[c][k] = bgp.NoLink
			case r == 1:
				catchments[c][k] = bgp.LinkID(nLinks + rng.Intn(2)) // past the volume row
			default:
				catchments[c][k] = bgp.LinkID(rng.Intn(nLinks))
			}
		}
		volumes[c] = make([]float64, nLinks)
		for l := range volumes[c] {
			switch r := rng.Intn(8); {
			case c == silent || r < 3:
			case r == 3:
				volumes[c][l] = 1e-12 // at the floor: counts as silent
			default:
				volumes[c][l] = 1 + 100*rng.Float64()
			}
		}
	}
	return catchments, volumes
}

func foldRounds(catchments [][]bgp.LinkID, volumes [][]float64, maxMisses int) []int {
	il := NewIncrementalLocalizer(len(catchments[0]))
	for c := range catchments {
		il.AddRound(catchments[c], volumes[c])
	}
	return il.Candidates(maxMisses)
}

// TestLocalizeVariantsAreOneRule pins Localize ≡ LocalizeTolerant(0) ≡ an
// IncrementalLocalizer fold, and LocalizeTolerant(m) ≡ the fold at m, on
// seeded random matrices. The digest over every answer was captured
// while the three were separate loops, so the single rule that replaced
// them is checked against those bodies and not only against itself.
func TestLocalizeVariantsAreOneRule(t *testing.T) {
	if got := Localize(nil, nil); got != nil {
		t.Fatalf("Localize(empty) = %v, want nil", got)
	}
	if got := LocalizeTolerant([][]bgp.LinkID{}, nil, 3); got != nil {
		t.Fatalf("LocalizeTolerant(empty) = %v, want nil", got)
	}
	digest := fnv.New64a()
	for seed := uint64(1); seed <= 200; seed++ {
		catchments, volumes := randomRounds(stats.NewRNG(seed))
		strict := Localize(catchments, volumes)
		for _, m := range []int{0, 1, 3} {
			tol := LocalizeTolerant(catchments, volumes, m)
			if fold := foldRounds(catchments, volumes, m); !reflect.DeepEqual(tol, fold) {
				t.Fatalf("seed %d maxMisses %d: LocalizeTolerant %v, fold %v", seed, m, tol, fold)
			}
			if m == 0 && !reflect.DeepEqual(strict, tol) {
				t.Fatalf("seed %d: Localize %v, LocalizeTolerant(0) %v", seed, strict, tol)
			}
			fmt.Fprintln(digest, seed, m, tol)
		}
	}
	if got, want := digest.Sum64(), uint64(0x3061cb5f8e43e634); got != want {
		t.Fatalf("candidate digest %#x, want %#x", got, want)
	}
}
