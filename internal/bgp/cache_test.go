package bgp

import (
	"slices"
	"testing"
)

// distinctConfigs returns n routing-distinct base configurations, the
// only kind a cache keeps: the link subsets 1..n as bitmasks over seven
// links (n <= 127).
func distinctConfigs(n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		var links []LinkID
		for l := 0; l < 7; l++ {
			if (i+1)&(1<<l) != 0 {
				links = append(links, LinkID(l))
			}
		}
		cfgs[i] = baseConfig(links...)
	}
	return cfgs
}

// TestOutcomeCacheCapHolds feeds ten bases to a cache bounded at four:
// the first four are admitted and stay resident (later lookups hit and
// return the same pointer), and the other six come back like derived
// outcomes — runner-ups shed, owned by the caller, never resident.
func TestOutcomeCacheCapHolds(t *testing.T) {
	g, o := worldForTest(t, 9, 600)
	e := newEngine(t, g, o, noiseless())
	cache := NewOutcomeCacheCap(4)
	cfgs := distinctConfigs(10)
	outs := make([]*Outcome, len(cfgs))
	for i, cfg := range cfgs {
		out, err := cache.Propagate(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	if st := cache.StatsSnapshot(); st.Size != 4 || st.Misses != 10 {
		t.Fatalf("size=%d misses=%d, want 4/10", st.Size, st.Misses)
	}
	if res := cache.Resident(); !slices.Equal(res, outs[:4]) {
		t.Fatalf("resident %d seeds, want the first 4 admitted in order", len(res))
	}
	for i, cfg := range cfgs {
		again, err := cache.Propagate(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if admitted := i < 4; (again == outs[i]) != admitted || HoldsRunnerUps(outs[i]) != admitted {
			t.Fatalf("base %d: same pointer %v, runner-ups %v, want both %v",
				i, again == outs[i], HoldsRunnerUps(outs[i]), admitted)
		}
	}
	if st := cache.StatsSnapshot(); st.Hits != 4 || st.Misses != 16 || st.Size != 4 {
		t.Fatalf("after replay: %d hits %d misses %d resident, want 4/16/4", st.Hits, st.Misses, st.Size)
	}
}

// TestOutcomeCacheDeltaSeeding checks that misses along a prepend ladder
// ride the delta path off the unprepended base and still produce
// outcomes byte-identical to direct propagation.
func TestOutcomeCacheDeltaSeeding(t *testing.T) {
	g, o := worldForTest(t, 13, 900)
	e := newEngine(t, g, o, DefaultParams(13))
	cache := NewOutcomeCache()
	for i := 0; i < 6; i++ {
		cfg := Config{Anns: []Announcement{{Link: 0, Prepend: i}}}
		got, err := cache.Propagate(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Propagate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !got.converged {
			t.Fatalf("config %d: cached outcome not converged", i)
		}
		for j := range want.sel {
			if got.sel[j] != want.sel[j] {
				t.Fatalf("config %d: AS %d selection %+v, direct %+v", i, j, got.sel[j], want.sel[j])
			}
		}
	}
}

// baseConfig announces plainly — no prepend, poison or community — on
// each of the given links: a configuration whose cache entry keeps its
// runner-ups and can seed.
func baseConfig(links ...LinkID) Config {
	anns := make([]Announcement, len(links))
	for i, l := range links {
		anns[i] = Announcement{Link: l}
	}
	return Config{Anns: anns}
}

// TestOutcomeCacheSeedFromWholeCache is the white-box contract of the
// seed pick: the seed is the cheapest resident outcome wherever it sits
// in admission order — here the oldest, behind more entries than any
// recency window would hold — and among equally cheap seeds the most
// recently admitted wins, however often the others are asked for.
func TestOutcomeCacheSeedFromWholeCache(t *testing.T) {
	g, o := worldForTest(t, 17, 600)
	e := newEngine(t, g, o, noiseless())
	cache := NewOutcomeCache()
	resolve := func(cfg Config) *Outcome {
		t.Helper()
		out, err := cache.Propagate(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	pick := func(cfg Config) *Outcome {
		cache.mu.Lock()
		defer cache.mu.Unlock()
		return cache.pickSeed(cfg)
	}

	oldest := resolve(baseConfig(0, 1, 2))
	for _, links := range [][]LinkID{{3}, {4}, {5}, {6}, {4, 5}, {4, 6}, {5, 6}, {4, 5, 6}} {
		resolve(baseConfig(links...))
	}
	x := resolve(baseConfig(0, 1))
	y := resolve(baseConfig(0, 3))

	// Adding link 3 to the oldest entry costs one added announcement;
	// every other resident would add two or more, or withdraw one.
	if seed := pick(baseConfig(0, 1, 2, 3)); seed != oldest {
		t.Fatalf("pickSeed chose %v, want the oldest seed %v", seed.Config(), oldest.Config())
	}
	// Links {0, 1, 3} are one added announcement from both x and y.
	tie := baseConfig(0, 1, 3)
	if seed := pick(tie); seed != y {
		t.Fatalf("tie went to %v, want the most recently admitted %v", seed.Config(), y.Config())
	}
	if resolve(x.Config()) != x { // a hit moves nothing
		t.Fatal("a resident seed did not hit")
	}
	if seed := pick(tie); seed != y {
		t.Fatalf("tie went to %v after a hit on x, want %v", seed.Config(), y.Config())
	}
}

// TestOutcomeCachePickSeedSkipsUnconverged: a dispute-frozen outcome is
// cached like any other but cannot seed a delta (PropagateDeltaInfo
// would reject it and run in full), so a cache holding only such an
// outcome offers no seed.
func TestOutcomeCachePickSeedSkipsUnconverged(t *testing.T) {
	g, o := worldForTest(t, 21, 600)
	e := newEngine(t, g, o, noiseless())
	cache := NewOutcomeCache()
	frozen, err := cache.Propagate(e, Config{Anns: []Announcement{{Link: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	frozen.converged = false
	seed := cache.pickSeed(Config{Anns: []Announcement{{Link: 0, Prepend: 1}}})
	cache.mu.Unlock()
	if seed != nil {
		t.Fatalf("pickSeed handed over the unconverged outcome %v", seed.Config())
	}
}

// TestOutcomeCachePickSeedAllocs: the pick scores every resident
// outcome on each miss, so it must not allocate.
func TestOutcomeCachePickSeedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bound not meaningful")
	}
	g, o := worldForTest(t, 23, 600)
	e := newEngine(t, g, o, noiseless())
	const n = 32
	cache := NewOutcomeCacheCap(n)
	// n base configurations, every one of which is kept and scored.
	for _, cfg := range distinctConfigs(n) {
		if _, err := cache.Propagate(e, cfg); err != nil {
			t.Fatal(err)
		}
	}
	// No resident is routing-identical to cfg, so the walk cannot stop
	// early and scores the whole cache.
	cfg := allLinksConfig(7)
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if allocs := testing.AllocsPerRun(100, func() { cache.pickSeed(cfg) }); allocs != 0 {
		t.Fatalf("pickSeed over %d entries allocated %.1f objects per call, want 0", n, allocs)
	}
}

// TestOutcomeCachePickSeedNearest checks the window seed choice is by
// announcement diff, not recency: when a scoring loop interleaves two
// configuration families, a miss near family A must seed from A even
// if family B resolved more recently.
func TestOutcomeCachePickSeedNearest(t *testing.T) {
	g, o := worldForTest(t, 19, 600)
	e := newEngine(t, g, o, noiseless())
	cache := NewOutcomeCache()
	famA := baseConfig(0, 1)
	famB := baseConfig(2, 3, 4)
	outA, err := cache.Propagate(e, famA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Propagate(e, famB); err != nil {
		t.Fatal(err)
	}
	// One announcement away from famA, far from the more recent famB.
	cfg := baseConfig(0, 1, 5)
	cache.mu.Lock()
	seed := cache.pickSeed(cfg)
	cache.mu.Unlock()
	if seed != outA {
		t.Fatalf("pickSeed chose %q, want famA %q", seed.Config().Key(), famA.Key())
	}
}

// TestOutcomeCacheDeltaModeStats checks the miss split: the first miss
// has no seed (full, DeltaFullNoPrev) and subsequent near-identical
// misses ride the incremental path, with DeltaIncremental + DeltaFull
// always equal to Misses.
func TestOutcomeCacheDeltaModeStats(t *testing.T) {
	g, o := worldForTest(t, 42, 1500)
	e := newEngine(t, g, o, DefaultParams(42))
	cache := NewOutcomeCache()
	base := allLinksConfig(7)
	// Single-field edits of a full-anycast base keep the affected
	// frontier small, so the second and later misses seed from the
	// window and ride the incremental path.
	configs := []Config{base}
	for i := 2; i <= 5; i++ {
		mut := cloneConfig(base)
		mut.Anns[3].Prepend = i
		configs = append(configs, mut)
	}
	for _, cfg := range configs {
		if _, err := cache.Propagate(e, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.StatsSnapshot()
	if st.Misses != 5 {
		t.Fatalf("misses = %d, want 5", st.Misses)
	}
	if st.DeltaIncremental+st.DeltaFull != st.Misses {
		t.Fatalf("delta split %d+%d does not account for %d misses",
			st.DeltaIncremental, st.DeltaFull, st.Misses)
	}
	if st.DeltaFull == 0 {
		t.Fatal("first miss had no seed and must count as a full propagation")
	}
	if st.DeltaIncremental == 0 {
		t.Fatal("single-field prepend edits must ride the incremental path")
	}
}
