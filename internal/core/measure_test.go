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

// imputedDigest folds a campaign's visibility imputation (§IV-d) into
// one FNV-1a value: the sources, every filled catchment cell, each
// source's smax and the imputed-cell count.
func imputedDigest(c *Campaign) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	r := c.Imputed
	put(uint64(len(r.Sources)))
	for _, src := range r.Sources {
		put(uint64(src))
	}
	put(uint64(len(r.Catchments)))
	for _, row := range r.Catchments {
		put(uint64(len(row)))
		for _, l := range row {
			put(uint64(int64(l)))
		}
	}
	for _, t := range r.Smax {
		put(uint64(int64(t)))
	}
	put(uint64(r.Imputed))
	return h.Sum64()
}

// TestMeasuredCampaignGolden pins the §IV-b/c/d pipeline bit for bit.
// The measurement digests were captured on the map-based implementation
// (commit 2b97cba) before the scratch-backed one replaced it; the
// imputation digests on the pairwise smax scorer (commit cb159a1) before
// the per-link bucketed one replaced it, so a different tie-break shows
// here. A change here means the inference changed, not only its cost.
func TestMeasuredCampaignGolden(t *testing.T) {
	golden := map[uint64]uint64{
		1: 0x6bb1a4af3597a67,
		2: 0xb410a69ea674cf9f,
		3: 0x3b51cb4cabf87082,
	}
	imputed := map[uint64]uint64{
		1: 0x285eb4de03725cb7,
		2: 0x58c1749bf5dd7521,
		3: 0xe10c939749d75cef,
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
		if c.Imputed == nil || c.Imputed.Imputed == 0 {
			t.Fatalf("seed %d: no imputed cell; the golden would not cover smax", seed)
		}
		if got := imputedDigest(c); got != imputed[seed] {
			t.Errorf("seed %d: imputation digest %#x, want %#x", seed, got, imputed[seed])
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
	out, err := w.Platform.Propagate(plan[3].Config)
	if err != nil {
		t.Fatal(err)
	}
	return w, out
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
