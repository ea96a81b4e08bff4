package bgp_test

import (
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
)

// TestMeasuredCampaignHoldsPatches runs a measured campaign on the
// default 4 000-AS world and counts what its Outcomes hold beyond the
// platform cache's seeds. A derived outcome kept dense would hold a
// selection and an export class per AS, 13 bytes; as a patch over its
// seed, the derived outcomes together must hold at most a quarter of
// that.
func TestMeasuredCampaignHoldsPatches(t *testing.T) {
	if testing.Short() || bgp.RaceEnabled {
		t.Skip("a measured 4k campaign: skipped in -short, and under -race, where the bytes held are the same")
	}
	w, err := core.BuildWorld(core.DefaultWorldParams(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := w.RunCampaign(plan, core.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := w.Graph.NumASes()
	derived, held := 0, 0
	for i, out := range camp.Outcomes {
		if bgp.IsBase(plan[i].Config) {
			continue
		}
		derived++
		held += bgp.HeldBytes(out)
	}
	dense := derived * 13 * n
	t.Logf("%d derived outcomes over %d ASes hold %d B, %.3f of the %d B dense", derived, n, held, float64(held)/float64(dense), dense)
	if derived == 0 || 4*held > dense {
		t.Fatalf("%d derived outcomes hold %d B, want at most a quarter of %d B", derived, held, dense)
	}
}
