//go:build !race

package measure

import "testing"

// TestChooseVantagesAllocs bounds ChooseVantages' allocations on the
// truth campaign's 10 000-AS graph. Ranking ASes by a customer list
// built inside the sort comparator made 145 k; counting customers in
// place leaves the ranking, candidate and result slices and the two
// used-sets' map growth, 74 in all, so a ceiling of 200 catches a per-AS
// or per-comparison allocation coming back.
func TestChooseVantagesAllocs(t *testing.T) {
	g := internet10k(t)
	allocs := testing.AllocsPerRun(5, func() { ChooseVantages(g, 1, 250, 1600) })
	t.Logf("%.0f allocations", allocs)
	if allocs > 200 {
		t.Errorf("ChooseVantages made %.0f allocations on the 10k graph, want <= 200", allocs)
	}
}
