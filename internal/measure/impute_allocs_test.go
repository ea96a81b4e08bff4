//go:build !race

package measure

import "testing"

// TestImputeAllocs holds Impute to a fixed number of allocations
// whatever the campaign's size: the result's four slices, the signature
// and cell tables, and the similarity buckets (the struct, its sampled
// keys, bucket starts, bucket order and score row), 11 in all. A ceiling
// of 12 that does not grow with sources or configurations catches a
// per-source, per-bucket or per-configuration allocation coming back.
func TestImputeAllocs(t *testing.T) {
	const ceiling = 12
	for _, tc := range []imputeCase{
		{n: 30, c: 10, links: 3, pObs: 0.8, pBaseline: 0.7},
		{n: 300, c: 100, links: 7, pObs: 0.95, pBaseline: 0.8},
		measuredShape,
		{n: 900, c: 700, links: 7, pObs: 0.9, pBaseline: 0.6},
	} {
		ms := tc.campaign(3)
		if Impute(ms).Imputed == 0 {
			t.Fatalf("%d ASes × %d configurations: nothing imputed, so smax was never scored", tc.n, tc.c)
		}
		got := testing.AllocsPerRun(5, func() { Impute(ms) })
		t.Logf("%d ASes × %d configurations: %.0f allocations", tc.n, tc.c, got)
		if got > ceiling {
			t.Errorf("Impute over %d ASes × %d configurations made %.0f allocations, want at most %d", tc.n, tc.c, got, ceiling)
		}
	}
}
