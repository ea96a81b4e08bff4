package bgp

import (
	"testing"

	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

func cloneConfig(cfg Config) Config {
	anns := make([]Announcement, len(cfg.Anns))
	for i, a := range cfg.Anns {
		anns[i] = Announcement{
			Link:        a.Link,
			Prepend:     a.Prepend,
			Poison:      append([]topo.ASN(nil), a.Poison...),
			Communities: append([]Community(nil), a.Communities...),
		}
	}
	return Config{Anns: anns}
}

func randomPoison(rng *stats.RNG, g *topo.Graph, o Origin, l LinkID) topo.ASN {
	prov := o.Links[l].Provider
	ns := g.Neighbors(prov)
	switch rng.Intn(4) {
	case 0: // out-of-topology ASN: pure path stuffing
		return topo.ASN(4200000000 + rng.Intn(1000))
	case 1: // random AS anywhere in the topology
		return g.ASN(rng.Intn(g.NumASes()))
	default: // provider neighbor, the paper's main target set
		return g.ASN(ns[rng.Intn(len(ns))].Idx)
	}
}

// mutateConfig produces the next config of a campaign-style walk: a copy
// of prev with one (or, a quarter of the time, several) field-level
// edits — announcement add/remove, prepend change, poison toggle,
// community change — plus occasional verbatim no-ops. This is exactly
// the near-identical-consecutive-configs workload PropagateDeltaInfo exists
// for, while multi-field edits and announcement removals exercise the
// frontier-explosion fallback.
func mutateConfig(rng *stats.RNG, g *topo.Graph, o Origin, prev Config) Config {
	cfg := cloneConfig(prev)
	if rng.Bool(0.05) {
		return cfg // no-op: the delta path should copy state verbatim
	}
	nmut := 1
	if rng.Bool(0.25) {
		nmut = 2 + rng.Intn(2)
	}
	for m := 0; m < nmut; m++ {
		switch rng.Intn(6) {
		case 0: // announce on a currently silent link
			used := make(map[LinkID]bool, len(cfg.Anns))
			for _, a := range cfg.Anns {
				used[a.Link] = true
			}
			var free []LinkID
			for l := range o.Links {
				if !used[LinkID(l)] {
					free = append(free, LinkID(l))
				}
			}
			if len(free) == 0 {
				continue
			}
			na := Announcement{Link: free[rng.Intn(len(free))]}
			if rng.Bool(0.3) {
				na.Prepend = rng.Intn(4)
			}
			if rng.Bool(0.3) {
				na.Poison = append(na.Poison, randomPoison(rng, g, o, na.Link))
			}
			cfg.Anns = append(cfg.Anns, na)
		case 1: // withdraw an announcement (configs must keep ≥1)
			if len(cfg.Anns) <= 1 {
				continue
			}
			i := rng.Intn(len(cfg.Anns))
			cfg.Anns = append(cfg.Anns[:i], cfg.Anns[i+1:]...)
		case 2: // prepend change
			cfg.Anns[rng.Intn(len(cfg.Anns))].Prepend = rng.Intn(5)
		case 3: // poison add (the platform caps announcements at 2 poisons)
			a := &cfg.Anns[rng.Intn(len(cfg.Anns))]
			if len(a.Poison) >= 2 {
				continue
			}
			a.Poison = append(a.Poison, randomPoison(rng, g, o, a.Link))
		case 4: // poison remove
			a := &cfg.Anns[rng.Intn(len(cfg.Anns))]
			if len(a.Poison) == 0 {
				continue
			}
			i := rng.Intn(len(a.Poison))
			a.Poison = append(a.Poison[:i], a.Poison[i+1:]...)
		case 5: // community toggle
			a := &cfg.Anns[rng.Intn(len(cfg.Anns))]
			if len(a.Communities) > 0 && rng.Bool(0.5) {
				a.Communities = a.Communities[:len(a.Communities)-1]
				continue
			}
			prov := o.Links[a.Link].Provider
			ns := g.Neighbors(prov)
			act := ActNoExportTo
			if rng.Bool(0.5) {
				act = ActPrependTo
			}
			a.Communities = append(a.Communities, Community{
				Operator: g.ASN(prov),
				Action:   act,
				Target:   g.ASN(ns[rng.Intn(len(ns))].Idx),
			})
		}
	}
	return cfg
}

// TestPropagateDeltaMatchesFull is the randomized full-vs-delta
// equivalence suite: a campaign-style mutation walk where every step's
// PropagateDeltaInfo outcome must be byte-identical to a from-scratch
// Propagate of the same config. Each delta chains off the previous
// *delta* outcome, so errors would compound if any crept in, and the
// walk runs under both noiseless and noisy engine parameters (pinned
// LocalPrefs, length-blind ASes, community support). The suite asserts
// that the walk actually exercised the incremental path, the no-op
// fast path, and the frontier-explosion fallback.
func TestPropagateDeltaMatchesFull(t *testing.T) {
	g, o := worldForTest(t, 77, 1500)
	modeCounts := make(map[DeltaMode]int)
	total := 0
	for _, params := range []Params{noiseless(), DefaultParams(77)} {
		e := newEngine(t, g, o, params)
		rng := stats.NewRNG(4321)
		cfg := randomConfig(rng, g, o)
		prev, err := e.Propagate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 70; step++ {
			next := mutateConfig(rng, g, o, cfg)
			want, err := e.Propagate(next)
			if err != nil {
				t.Fatalf("step %d: full: %v", step, err)
			}
			got, info, err := e.PropagateDeltaInfo(&prev, cfg, next)
			if err != nil {
				t.Fatalf("step %d: delta: %v", step, err)
			}
			if got.converged != want.converged {
				t.Fatalf("step %d (mode %v, cfg %v): converged=%v, full %v",
					step, info.Mode, next, got.converged, want.converged)
			}
			for i := range got.sel {
				if got.sel[i] != want.sel[i] {
					t.Fatalf("step %d (mode %v, prev %v -> next %v): AS %d selection %+v, full %+v",
						step, info.Mode, cfg, next, i, got.sel[i], want.sel[i])
				}
			}
			modeCounts[info.Mode]++
			total++
			cfg, prev = next, got
		}
	}
	t.Logf("equivalence over %d configs, modes: %v", total, modeCounts)
	if total < 120 {
		t.Fatalf("suite covered only %d configs, want >= 120", total)
	}
	if modeCounts[DeltaApplied] == 0 {
		t.Error("walk never took the incremental path")
	}
	if modeCounts[DeltaNoop] == 0 {
		t.Error("walk never hit the no-op fast path")
	}
	if modeCounts[DeltaFullFrontier] == 0 {
		t.Error("walk never triggered the frontier-explosion fallback")
	}
}

// TestPropagateDeltaSingleFieldDiffs pins the execution mode for the
// canonical campaign steps: identical config → noop, one-field tweaks →
// incremental with a bounded frontier, and withdrawing most of an
// anycast set → frontier fallback.
func TestPropagateDeltaSingleFieldDiffs(t *testing.T) {
	g, o := worldForTest(t, 42, 1500)
	e := newEngine(t, g, o, DefaultParams(42))
	base := allLinksConfig(7)
	prev, err := e.Propagate(base)
	if err != nil {
		t.Fatal(err)
	}

	prepended := cloneConfig(base)
	prepended.Anns[3].Prepend = 2
	// Poison a non-tier-1 neighbor: toggling a tier-1 poison legitimately
	// widens the frontier (the route-leak filter's decision changes at
	// every tier-1), which is not the small-diff case this test pins.
	poisoned := cloneConfig(base)
	prov := o.Links[poisoned.Anns[2].Link].Provider
	for _, nb := range g.Neighbors(prov) {
		if !g.IsTier1(nb.Idx) {
			poisoned.Anns[2].Poison = []topo.ASN{g.ASN(nb.Idx)}
			break
		}
	}
	if len(poisoned.Anns[2].Poison) == 0 {
		t.Fatal("provider has only tier-1 neighbors")
	}
	withdrawn := Config{Anns: base.Anns[:1]}

	cases := []struct {
		name string
		cfg  Config
		mode DeltaMode
	}{
		{"noop", cloneConfig(base), DeltaNoop},
		{"prepend", prepended, DeltaApplied},
		{"poison_toggle", poisoned, DeltaApplied},
		{"withdraw_most", withdrawn, DeltaFullFrontier},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := e.Propagate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, info, err := e.PropagateDeltaInfo(&prev, base, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info.Mode != tc.mode {
				t.Fatalf("mode %v, want %v (info %+v)", info.Mode, tc.mode, info)
			}
			for i := range got.sel {
				if got.sel[i] != want.sel[i] {
					t.Fatalf("AS %d selection %+v, full %+v", i, got.sel[i], want.sel[i])
				}
			}
			if tc.mode == DeltaApplied && info.Seeds > g.NumASes()/4 {
				t.Fatalf("single-field diff seeded %d of %d ASes", info.Seeds, g.NumASes())
			}
		})
	}
}

// TestPropagateDeltaWarmAllocs: once the engine's scratch and free list
// are warm, a delta step whose result is released allocates nothing —
// the diff and the per-announcement work live in the scratch, the
// outcome's arrays come back from the free list. Each case is one of the
// campaign's steps, on the index-identical path (prepend, poison toggle)
// and the remapping one (added announcement).
func TestPropagateDeltaWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bound not meaningful")
	}
	g, o := worldForTest(t, 42, 1500)
	e := newEngine(t, g, o, DefaultParams(42))
	base := allLinksConfig(7)
	prepended := cloneConfig(base)
	prepended.Anns[3].Prepend = 2
	poisoned := cloneConfig(base)
	for _, nb := range g.Neighbors(o.Links[2].Provider) {
		if !g.IsTier1(nb.Idx) {
			poisoned.Anns[2].Poison = []topo.ASN{g.ASN(nb.Idx)}
			break
		}
	}
	cases := []struct {
		name       string
		prev, next Config
	}{
		{"prepend", base, prepended},
		{"poison_toggle", base, poisoned},
		{"added", allLinksConfig(6), base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev, err := e.Propagate(tc.prev)
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				out, info, err := e.PropagateDeltaInfo(&prev, tc.prev, tc.next)
				if err != nil {
					t.Fatal(err)
				}
				if info.Mode != DeltaApplied {
					t.Fatalf("mode %v, want %v", info.Mode, DeltaApplied)
				}
				out.Release()
			}
			step() // warm the scratch's diff, work and seed list
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("warm delta step allocated %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestPropagateDeltaGuards pins the defensive fallbacks: no previous
// outcome, a non-converged previous outcome, a mismatched prevCfg, and
// a previous outcome from a different engine all take the full path and
// still return the correct result.
func TestPropagateDeltaGuards(t *testing.T) {
	g, o := worldForTest(t, 7, 900)
	e := newEngine(t, g, o, noiseless())
	base := allLinksConfig(5)
	prev, err := e.Propagate(base)
	if err != nil {
		t.Fatal(err)
	}
	next := cloneConfig(base)
	next.Anns[0].Prepend = 3
	want, err := e.Propagate(next)
	if err != nil {
		t.Fatal(err)
	}

	other := newEngine(t, g, o, DefaultParams(7))
	otherPrev, err := other.Propagate(base)
	if err != nil {
		t.Fatal(err)
	}
	frozen := prev
	frozen.converged = false

	cases := []struct {
		name    string
		prev    *Outcome
		prevCfg Config
	}{
		{"nil_prev", nil, base},
		{"not_converged", &frozen, base},
		{"wrong_prev_cfg", &prev, next},
		{"foreign_engine", &otherPrev, base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, info, err := e.PropagateDeltaInfo(tc.prev, tc.prevCfg, next)
			if err != nil {
				t.Fatal(err)
			}
			if info.Mode != DeltaFullNoPrev {
				t.Fatalf("mode %v, want %v", info.Mode, DeltaFullNoPrev)
			}
			for i := range got.sel {
				if got.sel[i] != want.sel[i] {
					t.Fatalf("AS %d selection %+v, full %+v", i, got.sel[i], want.sel[i])
				}
			}
		})
	}

	if _, _, err := e.PropagateDeltaInfo(&prev, base, Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestPropagateDeltaScratchReuse repeats delta propagation on a pooled
// engine so scratch recycling (deltaSeed clearing, queue drain, poison
// row cleanup) is covered: any bit left set by a previous delta would
// poison a later run.
func TestPropagateDeltaScratchReuse(t *testing.T) {
	g, o := worldForTest(t, 11, 1200)
	e := newEngine(t, g, o, DefaultParams(11))
	rng := stats.NewRNG(5)
	cfg := randomConfig(rng, g, o)
	prev, err := e.Propagate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 25; step++ {
		next := mutateConfig(rng, g, o, cfg)
		want, err := e.Propagate(next)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, _, err := e.PropagateDeltaInfo(&prev, cfg, next)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.sel {
				if got.sel[i] != want.sel[i] {
					t.Fatalf("step %d pass %d: AS %d selection %+v, full %+v",
						step, pass, i, got.sel[i], want.sel[i])
				}
			}
			if pass == 1 {
				cfg, prev = next, got
			}
		}
	}
}

// TestOutcomeReleaseRecycling walks a campaign where every superseded
// outcome is released back to the engine's array pool, so both the full
// and the delta paths keep building results inside recycled, unzeroed
// arrays. Selections must stay identical to a control engine that never
// recycles, and a released outcome handed back as prev must be rejected
// with a full-propagation fallback rather than trusted.
func TestOutcomeReleaseRecycling(t *testing.T) {
	g, o := worldForTest(t, 9, 800)
	ep := newEngine(t, g, o, DefaultParams(9)) // recycling walk
	ec := newEngine(t, g, o, DefaultParams(9)) // control, fresh arrays only
	rng := stats.NewRNG(99)
	cfg := randomConfig(rng, g, o)
	prev, err := ep.Propagate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 48; step++ {
		next := mutateConfig(rng, g, o, cfg)
		want, err := ec.Propagate(next)
		if err != nil {
			t.Fatalf("step %d: control: %v", step, err)
		}
		var got Outcome
		if step%7 == 3 {
			// Exercise the full path's pool pull too.
			got, err = ep.Propagate(next)
		} else {
			got, _, err = ep.PropagateDeltaInfo(&prev, cfg, next)
		}
		if err != nil {
			t.Fatalf("step %d: recycled: %v", step, err)
		}
		for i := range got.sel {
			if got.sel[i] != want.sel[i] {
				t.Fatalf("step %d: AS %d selection %+v, control %+v", step, i, got.sel[i], want.sel[i])
			}
		}
		prev.Release()
		cfg, prev = next, got
	}
	// A released outcome is dead: handing it back as prev must take the
	// full fallback (its arrays may already carry someone else's state).
	rel := prev
	rel.Release()
	want, err := ec.Propagate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := ep.PropagateDeltaInfo(&rel, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != DeltaFullNoPrev {
		t.Fatalf("released prev: mode %v, want %v", info.Mode, DeltaFullNoPrev)
	}
	for i := range got.sel {
		if got.sel[i] != want.sel[i] {
			t.Fatalf("released prev: AS %d selection %+v, control %+v", i, got.sel[i], want.sel[i])
		}
	}
	rel.Release() // double release is a no-op
}
