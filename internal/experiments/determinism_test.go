package experiments

import "testing"

// TestCampaignDeterminism verifies the repository's reproducibility
// claim end-to-end: two campaigns built from the same seed produce
// bit-identical catchment matrices, partitions, and figure outputs.
func TestCampaignDeterminism(t *testing.T) {
	a, err := measuredCampaign(99, 1000, 300, 80, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measuredCampaign(99, 1000, 300, 80, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSources() != b.NumSources() {
		t.Fatalf("source counts differ: %d vs %d", a.NumSources(), b.NumSources())
	}
	for c := range a.Catchments {
		for k := range a.Catchments[c] {
			if a.Catchments[c][k] != b.Catchments[c][k] {
				t.Fatalf("catchment [%d][%d] differs", c, k)
			}
		}
	}
	ma := a.FinalPartition().Summarize()
	mb := b.FinalPartition().Summarize()
	if ma != mb {
		t.Fatalf("partitions differ: %+v vs %+v", ma, mb)
	}
	// Figure outputs render identically.
	if Fig3(a).String() != Fig3(b).String() {
		t.Fatal("Fig3 output differs")
	}
	if Headline(a).String() != Headline(b).String() {
		t.Fatal("headline output differs")
	}
	fa := fig8(a, 20, 8, 1)
	fb := fig8(b, 20, 8, 1)
	if fa.String() != fb.String() {
		t.Fatal("Fig8 output differs")
	}
}
