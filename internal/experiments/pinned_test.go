package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// pinnedOutputs are FNV-64a digests of what
//
//	go run ./cmd/spooftrack -q [-truth] -ases 1000 -poisons 20 fig9 extpredict extpoison
//
// prints, recorded before the campaign stopped holding its outcomes.
// The three studies audit, predict against and target from every
// configuration's routing outcome, so they pin that an outcome fetched
// again from the platform is the one the campaign deployed.
var pinnedOutputs = map[bool]uint64{
	true:  0x9f0bf533e79674db,
	false: 0x69481420ac95168b,
}

// TestPinnedStudyOutputs rebuilds the command's lab and renders the three
// studies exactly as cmd/spooftrack prints them.
func TestPinnedStudyOutputs(t *testing.T) {
	for _, truth := range []bool{true, false} {
		l, err := NewLab(LabParams{Seed: 42, NumASes: 1000, MaxPoisonTargets: 20, UseTruth: truth})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fig9, err := Fig9(l)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&sb, fig9)
		pred, err := ExtPrediction(l)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&sb, pred)
		poison, err := ExtTargetedPoison(l, 10)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&sb, poison)
		h := fnv.New64a()
		h.Write([]byte(sb.String()))
		if got, want := h.Sum64(), pinnedOutputs[truth]; got != want {
			t.Errorf("truth=%v: output digest %#x, pinned %#x:\n%s", truth, got, want, sb.String())
		}
	}
}
