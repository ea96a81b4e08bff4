package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// measureWorld builds the 300-AS world the measurement-path goldens and
// the allocation gate run on: noisy IP-to-AS mapping (the default 2 %
// error rate) so every repair stage has work to do.
func measureWorld(t testing.TB, seed uint64, wireFeeds bool) *World {
	t.Helper()
	p := DefaultWorldParams(seed)
	tp := topo.DefaultGenParams(seed)
	tp.NumASes = 300
	p.Topo = &tp
	p.NumCollectors = 30
	p.NumProbes = 100
	p.MaxPoisonTargets = 10
	p.WireFeeds = wireFeeds
	w, err := BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// measurementDigest folds every field of every CatchmentMeasurement of a
// campaign into one FNV-1a value.
func measurementDigest(c *Campaign) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, m := range c.Measurements {
		put(uint64(len(m.Catchment)))
		for i, l := range m.Catchment {
			put(uint64(int64(l)))
			if m.Observed[i] {
				put(1)
			} else {
				put(0)
			}
		}
		put(uint64(m.MultiCatchment))
	}
	return h.Sum64()
}

// TestMeasuredCampaignGolden pins the §IV-b/c pipeline bit for bit: the
// digests were captured on the map-based implementation (commit 2b97cba)
// before the scratch-backed one replaced it. A change here means the
// inference changed, not only its cost.
func TestMeasuredCampaignGolden(t *testing.T) {
	golden := map[uint64]uint64{
		1: 0x6bb1a4af3597a67,
		2: 0xb410a69ea674cf9f,
		3: 0x3b51cb4cabf87082,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		w := measureWorld(t, seed, true)
		plan, err := w.DefaultPlan()
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.RunCampaign(plan, CampaignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		multi := 0
		for _, m := range c.Measurements {
			multi += m.MultiCatchment
		}
		if multi == 0 {
			t.Fatalf("seed %d: no multi-catchment AS in %d configs; the golden would not cover conflict accounting", seed, len(plan))
		}
		if got := measurementDigest(c); got != golden[seed] {
			t.Errorf("seed %d: measurement digest %#x, want %#x (%d configs)", seed, got, golden[seed], len(plan))
		}
	}
}

// warmOutcome builds the 300-AS measure world and returns it with the
// outcome of its fourth configuration, the unit a measured campaign
// measures once per deployed configuration.
func warmOutcome(t testing.TB, wireFeeds bool) (*World, *bgp.Outcome) {
	t.Helper()
	w := measureWorld(t, 1, wireFeeds)
	plan, err := w.DefaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.RunCampaign(plan[:4], CampaignOptions{UseTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	return w, c.Outcomes[3]
}

// BenchmarkMeasureOutcome times one warm configuration measurement with
// wire feeds on; TestMeasureOutcomeAllocs holds its allocations under a
// ceiling.
func BenchmarkMeasureOutcome(b *testing.B) {
	w, out := warmOutcome(b, true)
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.MeasureOutcome(out, 3, rng); err != nil {
			b.Fatal(err)
		}
	}
}
