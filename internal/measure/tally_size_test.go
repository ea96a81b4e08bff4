//go:build !race

package measure

import (
	"testing"

	"spooftrack/internal/addr"
	"spooftrack/internal/stats"
)

// Not under the race detector: like the package's allocation tests it
// pins memory the ordinary build holds, and one goroutine on a private
// scratch gives the race run nothing to check.

// TestTallyRowsFollowEvidence pins what a warm configuration measurement
// keeps for its tallies on a 10 000-AS world whose vantages observe a
// minority of the ASes: a state word per AS, a tally row only for an AS
// whose evidence names more than one link, and nothing sized by the
// world times the links. The dense table it replaced held two rows of
// cells per AS of the world, observed or not.
func TestTallyRowsFollowEvidence(t *testing.T) {
	w := newMeasureWorld(t, 3, 10000, 250, 1600)
	nm, err := addr.NewNoisyMapper(w.space, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.input.Mapper = nm
	n := w.g.NumASes()
	numLinks := w.platform.NumLinks()
	out, err := w.platform.Deploy(anycastAll(numLinks))
	if err != nil {
		t.Fatal(err)
	}
	s := newScratch()
	var m *CatchmentMeasurement
	for seed := uint64(1); seed <= 2; seed++ {
		if m, err = s.measure(out, w.vantages, w.space, DefaultNoise(), stats.NewRNG(seed), w.input, true, 1); err != nil {
			t.Fatal(err)
		}
	}
	observed := m.ObservedCount()
	if observed == 0 || observed > n/2 {
		t.Fatalf("%d of %d ASes observed; the check needs a minority observed", observed, n)
	}
	if m.MultiCatchment == 0 {
		t.Fatal("no AS with conflicting evidence; no tally row was needed")
	}
	stride := 2 * numLinks
	if got := len(s.touched); got != observed {
		t.Errorf("%d ASes touched, want the %d observed", got, observed)
	}
	if rows := len(s.counts) / stride; rows != m.MultiCatchment {
		t.Errorf("%d tally rows, want one per multi-catchment AS (%d)", rows, m.MultiCatchment)
	}
	if c := cap(s.counts); c > observed*stride {
		t.Errorf("tally table holds %d cells, more than %d observed ASes' rows", c, observed)
	}
	if len(s.state) != n {
		t.Errorf("%d state words, want one per AS (%d)", len(s.state), n)
	}
	t.Logf("%d of %d ASes observed, %d with conflicting evidence: %d tally bytes and %d state bytes, where a dense table takes %d",
		observed, n, m.MultiCatchment, 4*cap(s.counts), 4*len(s.state), 4*n*stride)
}
