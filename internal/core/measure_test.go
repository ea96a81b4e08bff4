package core

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"spooftrack/internal/bgp"
	"spooftrack/internal/measure"
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
// campaign into one FNV-1a value, and after each catchment whether it
// was observed: a bit a field of its own once held, kept in the hash so
// the digests captured then still apply.
func measurementDigest(c *Campaign) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, m := range c.Measurements {
		put(uint64(len(m.Catchment)))
		for _, l := range m.Catchment {
			put(uint64(int64(l)))
			if l != bgp.NoLink {
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

// TestCollectorFeedDigest pins what the collector feeds decode to: for
// every configuration of the default plan, the (collector, AS path)
// pairs that come back from the paths' round trip through the MRT codec,
// in ascending collector order. The paths do not depend on the
// traceroute rng, so Collect and RoundTripMRT reproduce exactly what a
// measured campaign's pass decodes. The digests were captured on the
// implementation that decoded every record into a fresh Update and path,
// before the round trip moved onto the measurement's reused scratch.
func TestCollectorFeedDigest(t *testing.T) {
	golden := map[uint64]uint64{
		1: 0xd18fdf19595eaaa5,
		2: 0xc5146758e887491,
		3: 0x57e5560cfc5aa355,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		w := measureWorld(t, seed, true)
		plan, err := w.DefaultPlan()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		pairs := 0
		for k, pc := range plan {
			out, err := w.Platform.Propagate(pc.Config)
			if err != nil {
				t.Fatal(err)
			}
			obs := measure.Collect(out, w.Vantages, w.Space, w.Params.Noise, stats.NewRNG(uint64(k)))
			if err := measure.RoundTripMRT(&obs, w.Graph, uint32(k)*70*60); err != nil {
				t.Fatal(err)
			}
			collectors := make([]int, 0, len(obs.BGPPaths))
			for c := range obs.BGPPaths {
				collectors = append(collectors, c)
			}
			slices.Sort(collectors)
			put(uint64(len(collectors)))
			for _, c := range collectors {
				p := obs.BGPPaths[c]
				put(uint64(c))
				put(uint64(len(p)))
				for _, asn := range p {
					put(uint64(asn))
				}
			}
			pairs += len(collectors)
		}
		if pairs == 0 {
			t.Fatalf("seed %d: no collector path in %d configs", seed, len(plan))
		}
		if got := h.Sum64(); got != golden[seed] {
			t.Errorf("seed %d: collector feed digest %#x, want %#x (%d configs, %d paths)", seed, got, golden[seed], len(plan), pairs)
		}
	}
}

// TestCollectTracerouteDigest pins what synthesis emits: for every
// configuration of the default plan, every traceroute Collect returns,
// as its probe AS, its hop count and each hop's IPv4 address as a
// big-endian word (0 for an unresponsive hop). The catchment goldens see
// the traceroutes only through inference; this one pins the router and
// IXP addresses and the rng's draw order bit for bit. The digests were
// captured on the implementation whose hops were netip.Addr values with
// a separate responsive flag.
func TestCollectTracerouteDigest(t *testing.T) {
	golden := map[uint64]uint64{
		1: 0xf2cd04496eab7688,
		2: 0x2fac41502bb2bb39,
		3: 0x665d525e166ad263,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		w := measureWorld(t, seed, true)
		plan, err := w.DefaultPlan()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		hops := 0
		for k, pc := range plan {
			out, err := w.Platform.Propagate(pc.Config)
			if err != nil {
				t.Fatal(err)
			}
			obs := measure.Collect(out, w.Vantages, w.Space, w.Params.Noise, stats.NewRNG(uint64(k)))
			put(uint64(len(obs.Traceroutes)))
			for _, tr := range obs.Traceroutes {
				put(uint64(tr.ProbeAS))
				put(uint64(len(tr.Hops)))
				for _, hop := range tr.Hops {
					put(uint64(hopWord(hop)))
				}
				hops += len(tr.Hops)
			}
		}
		if hops == 0 {
			t.Fatalf("seed %d: no traceroute hop in %d configs", seed, len(plan))
		}
		if got := h.Sum64(); got != golden[seed] {
			t.Errorf("seed %d: traceroute digest %#x, want %#x (%d configs, %d hops)", seed, got, golden[seed], len(plan), hops)
		}
	}
}

// hopWord is a hop's IPv4 address as a big-endian word, 0 when the hop
// did not answer.
func hopWord(h measure.Hop) uint32 {
	if !h.Responsive() {
		return 0
	}
	b := h.Addr().As4()
	return binary.BigEndian.Uint32(b[:])
}

// BenchmarkCampaignOutcomeHeap reports, as B/config, the heap a measured
// campaign's Outcomes hold per configuration on the 1 200-AS small world:
// HeapAlloc after a collection with the outcomes referenced, minus
// HeapAlloc after one with them dropped. The platform cache's seeds stay
// resident either way, so the figure is what the derived outcomes and the
// outcome headers cost. A derived outcome kept dense would add 13 bytes
// per AS.
func BenchmarkCampaignOutcomeHeap(b *testing.B) {
	held := 0.0
	for i := 0; i < b.N; i++ {
		w := smallWorld(b, 1)
		plan, err := w.DefaultPlan()
		if err != nil {
			b.Fatal(err)
		}
		camp, err := w.RunCampaign(plan, CampaignOptions{})
		if err != nil {
			b.Fatal(err)
		}
		held += outcomeHeap(camp) / float64(len(plan))
	}
	b.ReportMetric(held/float64(b.N), "B/config")
}

// outcomeHeap drops the campaign's Outcomes and returns how much live
// heap that frees. The first two collections empty the sync.Pools, whose
// contents a collection drops only on its second pass.
func outcomeHeap(camp *Campaign) float64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&with)
	camp.Outcomes = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(camp)
	return float64(with.HeapAlloc) - float64(without.HeapAlloc)
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
// ceiling. One measurement before the timer warms the scratch, so even a
// single iteration (-benchtime 1x) reports the warm allocations.
func BenchmarkMeasureOutcome(b *testing.B) {
	w, out := warmOutcome(b, true)
	rng := stats.NewRNG(7)
	if _, err := w.MeasureOutcome(out, 3, rng); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.MeasureOutcome(out, 3, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMeasuredCampaignOutcomesDigest pins what a measured campaign's
// Outcomes answer, AS by AS: catchment, path length, next hop and route
// class of every AS in every configuration, and the AS-path of every
// seventh AS. Most of these outcomes are derived by the platform's
// outcome cache, and the measure phase and the bench trace probes read
// them through exactly these accessors. The digests were captured on the
// dense-outcome implementation before derived outcomes became patches
// over their seed.
func TestMeasuredCampaignOutcomesDigest(t *testing.T) {
	golden := map[uint64]uint64{
		1: 0x137b0f1c00df71f1,
		2: 0x4e982be28ac42344,
		3: 0x321eda5e8a94fff6,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		w := measureWorld(t, seed, false)
		plan, err := w.DefaultPlan()
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.RunCampaign(plan, CampaignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		put := func(v int64) {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		for _, out := range c.Outcomes {
			for i := 0; i < w.Graph.NumASes(); i++ {
				put(int64(out.CatchmentOf(i)))
				put(int64(out.PathLen(i)))
				put(int64(out.NextHop(i)))
				put(int64(out.ClassOf(i)))
				if i%7 == 0 {
					p := out.AppendASPath(nil, i)
					put(int64(len(p)))
					for _, asn := range p {
						put(int64(asn))
					}
				}
			}
		}
		if got := h.Sum64(); got != golden[seed] {
			t.Errorf("seed %d: outcome accessor digest %#x, want %#x (%d outcomes)", seed, got, golden[seed], len(c.Outcomes))
		}
	}
}
