package bgp

import (
	"math/bits"
	"slices"
	"testing"

	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// patchWorld is one world the patch tests walk: a graph with its origin
// and the engine parameters to route it with.
type patchWorld struct {
	name   string
	g      *topo.Graph
	o      Origin
	params Params
}

// patchWorlds returns the 4 000-AS default world and a 10 000-AS
// internet-shaped one, each routed noiselessly and with the default
// policy noise.
func patchWorlds(t *testing.T) []patchWorld {
	g4, o4 := worldForTest(t, 3, 4000)
	g10, o10 := internetWorldForTest(t, 5, 10000)
	return []patchWorld{
		{"default4k/noiseless", g4, o4, noiseless()},
		{"default4k/noisy", g4, o4, DefaultParams(3)},
		{"internet10k/noiseless", g10, o10, noiseless()},
		{"internet10k/noisy", g10, o10, DefaultParams(5)},
	}
}

// patchWalk returns the base configuration a campaign seeds from first,
// all links, and a walk of configurations an OutcomeCache derives: per
// link a prepend, a poison, an action community and a withdrawal (every
// link but one, another one prepended), which derive from all links;
// then two location bases, which the cache keeps, and per link a
// location change that adds the link, prepended, to one of them; then
// random configurations on top.
func patchWalk(rng *stats.RNG, g *topo.Graph, o Origin) (bases, walk []Config) {
	nl := len(o.Links)
	all := allLinksConfig(nl)
	for l := 0; l < nl; l++ {
		prep := cloneConfig(all)
		prep.Anns[l].Prepend = 1 + l%3
		pois := cloneConfig(all)
		pois.Anns[l].Poison = []topo.ASN{randomPoison(rng, g, o, LinkID(l))}
		comm := cloneConfig(all)
		prov := o.Links[l].Provider
		ns := g.Neighbors(prov)
		act := ActNoExportTo
		if l%2 == 1 {
			act = ActPrependTo
		}
		comm.Anns[l].Communities = []Community{{
			Operator: g.ASN(prov), Action: act, Target: g.ASN(ns[rng.Intn(len(ns))].Idx),
		}}
		var wd Config
		for k := 0; k < nl; k++ {
			if k != l {
				wd.Anns = append(wd.Anns, Announcement{Link: LinkID(k)})
			}
		}
		wd.Anns[l%len(wd.Anns)].Prepend = 2
		walk = append(walk, prep, pois, comm, wd)
	}
	low, high := baseConfig(0, 1, 2), baseConfig(3, 4, 5)
	walk = append(walk, low, high)
	for l := 0; l < nl; l++ {
		loc := cloneConfig(high)
		if l >= 3 {
			loc = cloneConfig(low)
		}
		if l == 3 || l == 4 || l == 5 {
			loc.Anns = append(loc.Anns, Announcement{Link: LinkID(l), Prepend: 1})
		} else {
			loc.Anns = append([]Announcement{{Link: LinkID(l), Prepend: 1}}, loc.Anns...)
		}
		walk = append(walk, loc)
	}
	for n := 0; n < 8; {
		if cfg := randomConfig(rng, g, o); !isBase(cfg) {
			walk = append(walk, cfg)
			n++
		}
	}
	return []Config{all}, walk
}

// sameAnswers fails unless got answers every Outcome query exactly as
// want does, AS by AS, and audits the same.
func sameAnswers(t *testing.T, label string, e *Engine, got, want *Outcome) {
	t.Helper()
	if got.Converged() != want.Converged() || got.Config().Key() != want.Config().Key() {
		t.Fatalf("%s: converged %v config %v, want %v %v", label,
			got.Converged(), got.Config(), want.Converged(), want.Config())
	}
	if !slices.Equal(got.CatchmentVector(), want.CatchmentVector()) {
		t.Fatalf("%s: catchment vectors differ", label)
	}
	var gp, wp []int
	for i := 0; i < e.g.NumASes(); i++ {
		if got.CatchmentOf(i) != want.CatchmentOf(i) || got.HasRoute(i) != want.HasRoute(i) ||
			got.NextHop(i) != want.NextHop(i) || got.PathLen(i) != want.PathLen(i) ||
			got.ClassOf(i) != want.ClassOf(i) || got.DataPathLen(i) != want.DataPathLen(i) {
			t.Fatalf("%s: AS %d answers link %d route %v hop %d len %d class %d hops %d, want %d %v %d %d %d %d",
				label, i, got.CatchmentOf(i), got.HasRoute(i), got.NextHop(i), got.PathLen(i), got.ClassOf(i), got.DataPathLen(i),
				want.CatchmentOf(i), want.HasRoute(i), want.NextHop(i), want.PathLen(i), want.ClassOf(i), want.DataPathLen(i))
		}
		if !slices.Equal(got.ASPath(i), want.ASPath(i)) {
			t.Fatalf("%s: AS %d AS-path %v, want %v", label, i, got.ASPath(i), want.ASPath(i))
		}
		gp, wp = got.AppendDataPath(gp[:0], i), want.AppendDataPath(wp[:0], i)
		if !slices.Equal(gp, wp) {
			t.Fatalf("%s: AS %d data path %v, want %v", label, i, gp, wp)
		}
	}
	ga, wa := e.Audit(got), e.Audit(want)
	if !slices.Equal(ga.Evaluated, wa.Evaluated) || !slices.Equal(ga.BestRel, wa.BestRel) ||
		!slices.Equal(ga.GaoRexford, wa.GaoRexford) {
		t.Fatalf("%s: audit differs from the fresh propagation's", label)
	}
}

// TestPatchedOutcomesEquivalent walks every kind of derived configuration
// through an OutcomeCache, on both worlds with and without policy noise:
// each outcome the cache derives must answer every query and audit
// exactly as a fresh Propagate of its configuration does.
func TestPatchedOutcomesEquivalent(t *testing.T) {
	for _, pw := range patchWorlds(t) {
		t.Run(pw.name, func(t *testing.T) {
			if raceEnabled && pw.g.NumASes() > 4000 {
				t.Skip("one goroutine and slow under -race: the plain run covers the 10k world")
			}
			e := newEngine(t, pw.g, pw.o, pw.params)
			bases, walk := patchWalk(stats.NewRNG(pw.params.Seed), pw.g, pw.o)
			cache := NewOutcomeCache()
			for _, cfg := range bases {
				if _, err := cache.Propagate(e, cfg); err != nil {
					t.Fatal(err)
				}
			}
			patches, withdrawn, remapped := 0, 0, 0
			for k, cfg := range walk {
				got, err := cache.Propagate(e, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := propagate(t, e, cfg)
				sameAnswers(t, cfg.String(), e, got, want)
				if got.sel == nil {
					patches++
					for ai, c := range got.patch.carry[1:] {
						withdrawn += b2i(c.to < 0)
						remapped += b2i(c.to >= 0 && int(c.to) != ai)
					}
				}
				if k%2 == 0 {
					got.Release()
				}
			}
			t.Logf("%d configurations, %d derived as patches (%d withdrawn, %d remapped announcements)",
				len(walk), patches, withdrawn, remapped)
			if patches < len(walk)/2 || withdrawn == 0 || remapped == 0 {
				t.Fatalf("%d of %d outcomes are patches, %d withdraw an announcement, %d remap one: the walk misses a kind",
					patches, len(walk), withdrawn, remapped)
			}
		})
	}
}

// TestPatchedOutcomesRecycle keeps deriving while it releases: three
// passes over the walk release three outcomes in four, whose patch
// buffers the next derivations reuse, and hold the fourth. Every outcome
// held must still answer as its fresh propagation does at the end, so no
// recycled buffer can alias a live outcome.
func TestPatchedOutcomesRecycle(t *testing.T) {
	g, o := worldForTest(t, 3, 4000)
	e := newEngine(t, g, o, DefaultParams(3))
	bases, walk := patchWalk(stats.NewRNG(9), g, o)
	cache := NewOutcomeCache()
	for _, cfg := range bases {
		if _, err := cache.Propagate(e, cfg); err != nil {
			t.Fatal(err)
		}
	}
	fresh := make([]*Outcome, len(walk))
	for k, cfg := range walk {
		fresh[k] = propagate(t, e, cfg)
	}
	type held struct {
		k   int
		out *Outcome
	}
	var live []held
	for pass := 0; pass < 3; pass++ {
		for k, cfg := range walk {
			out, err := cache.Propagate(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(out.CatchmentVector(), fresh[k].CatchmentVector()) {
				t.Fatalf("pass %d, %v: catchments differ from the fresh propagation", pass, cfg)
			}
			if (pass*len(walk)+k)%4 == 0 {
				live = append(live, held{k, out})
			} else {
				out.Release()
			}
		}
	}
	for _, h := range live {
		sameAnswers(t, walk[h.k].String(), e, h.out, fresh[h.k])
	}
}

// TestPatchHoldsChangedASesOnly pins what a patch holds: exactly the ASes
// whose selection differs from their seed selection carried over, in
// ascending order with consistent ranks, never more than the delta's
// decision events, and for every other AS the carried seed selection.
// The 2 000-AS internet-shaped world is there because its delta steps
// re-decide some ASes back to where the carry-over had them, which the
// patch must not hold.
func TestPatchHoldsChangedASesOnly(t *testing.T) {
	g4, o4 := worldForTest(t, 3, 4000)
	g2, o2 := internetWorldForTest(t, 5, 2000)
	for _, pw := range []patchWorld{
		{"default4k/noisy", g4, o4, DefaultParams(3)},
		{"internet2k/noisy", g2, o2, DefaultParams(42)},
	} {
		t.Run(pw.name, func(t *testing.T) { checkPatchContents(t, pw) })
	}
}

func checkPatchContents(t *testing.T, pw patchWorld) {
	g := pw.g
	e := newEngine(t, g, pw.o, pw.params)
	bases, walk := patchWalk(stats.NewRNG(11), g, pw.o)
	seed := propagate(t, e, bases[0])
	patches := 0
	for _, cfg := range walk {
		out, info, err := e.derive(seed, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.sel != nil {
			if info.Mode == DeltaApplied {
				t.Fatalf("%v: an applied delta came back dense", cfg)
			}
			continue
		}
		patches++
		p := &out.patch
		differ, rank := 0, 0
		for w, word := range p.words {
			if int(word.rank) != rank {
				t.Fatalf("%v: word %d ranks %d, want %d", cfg, w, word.rank, rank)
			}
			rank += bits.OnesCount64(word.bits)
		}
		for i := 0; i < g.NumASes(); i++ {
			touched := p.words[i>>6].bits&(1<<(i&63)) != 0
			carry := seed.sel[i]
			carryOver(&carry, p.carry)
			if d := out.at(i) != carry; d != touched {
				t.Fatalf("%v: AS %d differs from its carried seed selection %v, held %v", cfg, i, d, touched)
			} else if d {
				differ++
			}
		}
		if len(p.sel) != differ || len(p.cls) != differ || rank != differ {
			t.Fatalf("%v: patch holds %d selections, %d classes, %d bits for %d changed ASes",
				cfg, len(p.sel), len(p.cls), rank, differ)
		}
		if differ > info.Events {
			t.Fatalf("%v: %d changed ASes from %d decision events", cfg, differ, info.Events)
		}
		out.Release()
	}
	if patches < len(walk)/2 {
		t.Fatalf("only %d of %d derivations applied", patches, len(walk))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDeriveReleaseAllocs is the truth campaign's pattern: derive an
// outcome through the cache, read it, release it. Once warm, a
// configuration the cache derives as a patch allocates nothing beyond
// its cache key: the working arrays come from the engine's free list and
// go back, and the released patch, buffers and all, serves the next
// derivation. Configurations with action communities are left out: every
// propagation of one builds its community tables, as it always has.
func TestDeriveReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bound not meaningful")
	}
	g, o := worldForTest(t, 3, 4000)
	e := newEngine(t, g, o, DefaultParams(3))
	bases, walk := patchWalk(stats.NewRNG(13), g, o)
	cache := NewOutcomeCache()
	var patched []Config
	for pass := 0; pass < 2; pass++ {
		for _, cfg := range append(bases, walk...) {
			out, err := cache.Propagate(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 && out.sel == nil && !hasCommunities(cfg) {
				patched = append(patched, cfg)
			}
			out.Release()
		}
	}
	if len(patched) < len(walk)/3 {
		t.Fatalf("only %d of %d configurations derive as community-free patches", len(patched), len(walk))
	}
	for _, cfg := range patched {
		step := testing.AllocsPerRun(10, func() {
			out, err := cache.Propagate(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out.Release()
		})
		key := testing.AllocsPerRun(10, func() { _ = cfg.Key() })
		if step > key {
			t.Fatalf("%v: a warm derive and release allocated %.0f objects, its cache key %.0f", cfg, step, key)
		}
	}
}

func hasCommunities(cfg Config) bool {
	for _, a := range cfg.Anns {
		if len(a.Communities) > 0 {
			return true
		}
	}
	return false
}
