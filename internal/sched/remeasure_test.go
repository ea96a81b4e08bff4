package sched

import (
	"reflect"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
)

func TestNextGreedyVolumeScoredMatchesMasked(t *testing.T) {
	p := cluster.New(4)
	vol := []float64{4, 1, 1, 2}
	used := make([]bool, 3)
	want := NextGreedyVolumeMasked(p, maskCatchments, vol, used, nil)
	got, scores := NextGreedyVolumeScored(p, maskCatchments, vol, used, nil, true)
	if got != want {
		t.Fatalf("scored winner %d != masked winner %d", got, want)
	}
	if len(scores) != 3 {
		t.Fatalf("scores cover %d configs, want all 3: %+v", len(scores), scores)
	}
	var fresh cluster.Scorer
	fresh.Reset(p, vol)
	for i, s := range scores {
		if s.Config != i {
			t.Fatalf("scores not in ascending config order: %+v", scores)
		}
		if want := fresh.Score(maskCatchments[i]); s.Score != want {
			t.Fatalf("config %d score %v, want %v", i, s.Score, want)
		}
		if s.Score < scores[got].Score {
			t.Fatalf("winner %d (score %v) beaten by config %d (score %v)", got, scores[got].Score, i, s.Score)
		}
	}

	// Used and blocked configurations drop out of the candidate set.
	got2, scores2 := NextGreedyVolumeScored(p, maskCatchments, vol, []bool{false, true, false}, []bool{true, false, false}, true)
	if got2 != 2 || len(scores2) != 1 || scores2[0].Config != 2 {
		t.Fatalf("filtered: winner %d scores %+v, want only config 2", got2, scores2)
	}
	// Nothing eligible → -1 and no scores.
	got3, scores3 := NextGreedyVolumeScored(p, maskCatchments, vol, []bool{true, true, true}, nil, true)
	if got3 != -1 || len(scores3) != 0 {
		t.Fatalf("exhausted: winner %d scores %+v", got3, scores3)
	}
}

func TestEstimateVolumes(t *testing.T) {
	row := []bgp.LinkID{0, 0, 1, bgp.NoLink, 2, 1}
	// Source 1 is eliminated; link 2 has no volume entry (index >=
	// len(volumes)); source 3 is unobserved.
	got := EstimateVolumes(row, []int{0, 2, 3, 4, 5}, []float64{6, 8})
	want := []float64{6, 0, 4, 0, 0, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EstimateVolumes = %v, want %v", got, want)
	}
	if got := EstimateVolumes(row, nil, []float64{6, 8}); !reflect.DeepEqual(got, make([]float64, len(row))) {
		t.Fatalf("no candidates: EstimateVolumes = %v, want all zero", got)
	}
}

func TestTopVolumeCluster(t *testing.T) {
	p := cluster.New(6)
	p.Refine([]bgp.LinkID{0, 0, 1, 1, 2, 2}) // clusters {0,1} {2,3} {4,5}
	all := []int{0, 1, 2, 3, 4, 5}
	if id, size := TopVolumeCluster(p, nil, make([]float64, 6)); id != -1 || size != -1 {
		t.Fatalf("no candidates: got (%d, %d), want (-1, -1)", id, size)
	}
	if id, size := TopVolumeCluster(p, all, make([]float64, 6)); id != -1 || size != -1 {
		t.Fatalf("no volume: got (%d, %d), want (-1, -1)", id, size)
	}
	// Cluster 1 carries 5, clusters 0 and 2 carry 3 each.
	if id, size := TopVolumeCluster(p, all, []float64{1, 2, 5, 0, 3, 0}); id != 1 || size != 2 {
		t.Fatalf("heaviest: got (%d, %d), want (1, 2)", id, size)
	}
	// Equal volumes tie toward the lowest cluster id, whatever order the
	// candidates come in.
	for _, cands := range [][]int{{0, 2, 4}, {4, 2, 0}} {
		if id, _ := TopVolumeCluster(p, cands, []float64{2, 0, 2, 0, 2, 0}); id != 0 {
			t.Fatalf("tie over candidates %v: got cluster %d, want 0", cands, id)
		}
	}
	// Volume on a non-candidate is not counted.
	if id, _ := TopVolumeCluster(p, []int{0, 1}, []float64{1, 0, 9, 9, 0, 0}); id != 0 {
		t.Fatalf("eliminated volume counted: got cluster %d, want 0", id)
	}
}

func TestSplittable(t *testing.T) {
	unused := make([]bool, 3)
	if Splittable(maskCatchments, unused, nil) || Splittable(maskCatchments, unused, []int{2}) {
		t.Fatal("a cluster of fewer than two members cannot be split")
	}
	if !Splittable(maskCatchments, unused, []int{2, 3}) {
		t.Fatal("config 1 separates sources 2 and 3")
	}
	if Splittable(maskCatchments, []bool{false, true, false}, []int{2, 3}) {
		t.Fatal("only the used config 1 separates sources 2 and 3")
	}
	if Splittable(maskCatchments, []bool{true, true, true}, []int{0, 3}) {
		t.Fatal("nothing left to deploy")
	}
}

// TestEveryUnusedConfigBlocked: a cluster only quarantined
// configurations can split stays splittable (the loop waits for the
// links to heal) while the greedy step itself has nothing to deploy.
func TestEveryUnusedConfigBlocked(t *testing.T) {
	p := cluster.New(4)
	used := []bool{true, false, false}
	blocked := []bool{false, true, true}
	if !Splittable(maskCatchments, used, []int{0, 1, 2, 3}) {
		t.Fatal("blocked configurations must still count as able to split")
	}
	vol := []float64{1, 1, 1, 1}
	if got := NextGreedyVolumeMasked(p, maskCatchments, vol, used, blocked); got != -1 {
		t.Fatalf("NextGreedyVolumeMasked = %d, want -1", got)
	}
	if got, scores := NextGreedyVolumeScored(p, maskCatchments, vol, used, blocked, true); got != -1 || scores != nil {
		t.Fatalf("NextGreedyVolumeScored = %d %v, want -1 and no scores", got, scores)
	}
	if got := NextRemeasure(maskCatchments, []int{0}, used, blocked); got != -1 {
		t.Fatalf("NextRemeasure = %d, want -1", got)
	}
}

func TestNextRemeasure(t *testing.T) {
	no := bgp.NoLink
	catchments := [][]bgp.LinkID{
		{0, no, no, no}, // sees hint 0 only
		{0, 1, no, no},  // sees hints 0 and 1 on two links
		{0, 0, no, no},  // sees hints 0 and 1 on one link
		{no, no, 2, 2},  // sees no hinted source
	}
	used := make([]bool, 4)
	hints := []int{0, 1}

	// Config 1 and 2 both see two hinted sources; 1 wins the distinct-
	// link tie-break.
	if got := NextRemeasure(catchments, hints, used, nil); got != 1 {
		t.Fatalf("NextRemeasure = %d, want 1", got)
	}
	// With 1 used, 2 wins (same coverage, fewer links, lower index than
	// nothing).
	if got := NextRemeasure(catchments, hints, []bool{false, true, false, false}, nil); got != 2 {
		t.Fatalf("used-filtered NextRemeasure = %d, want 2", got)
	}
	// Blocked works the same way.
	if got := NextRemeasure(catchments, hints, used, []bool{false, true, false, false}); got != 2 {
		t.Fatalf("blocked-filtered NextRemeasure = %d, want 2", got)
	}
	// Equal coverage and equal link spread: lowest index wins.
	if got := NextRemeasure(catchments, []int{0}, used, nil); got != 0 {
		t.Fatalf("tie: NextRemeasure = %d, want 0", got)
	}
	// No hints, or no configuration observing any hint, skips the round.
	if got := NextRemeasure(catchments, nil, used, nil); got != -1 {
		t.Fatalf("no hints: NextRemeasure = %d, want -1", got)
	}
	if got := NextRemeasure(catchments, []int{2}, []bool{false, false, false, true}, nil); got != -1 {
		t.Fatalf("unobservable hint: NextRemeasure = %d, want -1", got)
	}
	// Out-of-range hints are ignored, not a panic.
	if got := NextRemeasure(catchments, []int{-1, 99, 0}, used, nil); got != 0 {
		t.Fatalf("out-of-range hints: NextRemeasure = %d, want 0", got)
	}
}
