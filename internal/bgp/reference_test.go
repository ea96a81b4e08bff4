package bgp

import (
	"testing"

	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// This file retains the original, straightforward propagation
// implementation as an executable specification. The optimized engine
// (dense poison rows, epoch-memoized chain walks, ring-buffer queue,
// pooled scratch) must produce byte-identical outcomes; the equivalence
// test below checks that over a large randomized configuration corpus.
//
// The reference deliberately keeps the old structure: per-call maps for
// direct announcements and poison sets (keyed by ASN), a reslice-FIFO
// queue, an insertion-sorted seed order, per-offer re-computation of the
// sender's export class, and unmemoized next-hop chain walks.

type refCtx struct {
	poisoned    []map[topo.ASN]bool
	poisonTier1 [][]topo.ASN
	comm        communityTables
}

func refBuildCtx(e *Engine, cfg Config) *refCtx {
	ctx := &refCtx{
		poisoned:    make([]map[topo.ASN]bool, len(cfg.Anns)),
		poisonTier1: make([][]topo.ASN, len(cfg.Anns)),
		comm:        buildCommunityTables(cfg),
	}
	for ai, a := range cfg.Anns {
		if len(a.Poison) == 0 {
			continue
		}
		m := make(map[topo.ASN]bool, len(a.Poison))
		for _, p := range a.Poison {
			m[p] = true
			if idx, ok := e.g.Index(p); ok && e.g.IsTier1(idx) {
				ctx.poisonTier1[ai] = append(ctx.poisonTier1[ai], p)
			}
		}
		ctx.poisoned[ai] = m
	}
	return ctx
}

func refOfferFrom(e *Engine, out *Outcome, nb topo.Neighbor, i int, ctx *refCtx) (selection, bool) {
	s := out.sel[nb.Idx]
	if s.class == classInvalid {
		return selection{}, false
	}
	sendClass := e.trueClass(nb.Idx, s)
	if sendClass != classCustomer && nb.Rel != topo.RelProvider {
		return selection{}, false
	}
	ai := int(s.ann)
	iASN := e.g.ASN(i)
	nbASN := e.g.ASN(nb.Idx)
	remotePrepend := int32(0)
	if e.honorsComm[nb.Idx] {
		if hasCommunity(ctx.comm.noExport, ai, nbASN, iASN) {
			return selection{}, false
		}
		if hasCommunity(ctx.comm.prepend, ai, nbASN, iASN) {
			remotePrepend = remotePrependDepth
		}
	}
	if ctx.poisoned[ai] != nil && ctx.poisoned[ai][iASN] && !e.ignorePoison[i] {
		return selection{}, false
	}
	hop := nb.Idx
	for hop != -1 {
		if hop == i {
			return selection{}, false
		}
		hop = int(out.sel[hop].nextHop)
	}
	if e.params.Tier1PoisonFilter && e.g.IsTier1(i) && nb.Rel == topo.RelCustomer {
		for _, p := range ctx.poisonTier1[ai] {
			if p != iASN {
				return selection{}, false
			}
		}
		hop = nb.Idx
		for hop != -1 {
			if e.g.IsTier1(hop) {
				return selection{}, false
			}
			hop = int(out.sel[hop].nextHop)
		}
	}
	class := classProvider
	switch nb.Rel {
	case topo.RelCustomer:
		class = classCustomer
	case topo.RelPeer:
		class = classPeer
	}
	return selection{
		class:   class,
		ann:     s.ann,
		pathLen: s.pathLen + 1 + remotePrepend,
		nextHop: int32(nb.Idx),
	}, true
}

func refSortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func refPropagate(e *Engine, cfg Config) (*Outcome, error) {
	if err := cfg.Validate(e.origin); err != nil {
		return nil, err
	}
	n := e.g.NumASes()
	out := &Outcome{engine: e, cfg: cfg, sel: make([]selection, n), converged: true}
	for i := range out.sel {
		out.sel[i] = noRoute
	}
	ctx := refBuildCtx(e, cfg)
	directAnns := make(map[int][]int)
	for ai, a := range cfg.Anns {
		p := e.origin.Links[a.Link].Provider
		directAnns[p] = append(directAnns[p], ai)
	}
	queued := make([]bool, n)
	queue := make([]int, 0, n)
	enqueue := func(i int) {
		if !queued[i] {
			queued[i] = true
			queue = append(queue, i)
		}
	}
	for p := range directAnns {
		enqueue(p)
	}
	refSortInts(queue)

	events := 0
	budget := maxEventsPerAS * n
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		queued[i] = false
		events++
		if events > budget {
			out.converged = false
			return out, nil
		}
		best := noRoute
		for _, ai := range directAnns[i] {
			a := cfg.Anns[ai]
			if ctx.poisoned[ai] != nil && ctx.poisoned[ai][e.g.ASN(i)] && !e.ignorePoison[i] {
				continue
			}
			cand := selection{
				class:   classCustomer,
				ann:     int8(ai),
				pathLen: int32(a.PathLen()),
				nextHop: -1,
				pri:     -1,
			}
			if e.betterFor(i, cand, best) {
				best = cand
			}
		}
		for k, nb := range e.g.Neighbors(i) {
			cand, ok := refOfferFrom(e, out, nb, i, ctx)
			if !ok {
				continue
			}
			cand.pri = e.row(i)[k].pri
			if e.pinned[i] == nb.Idx {
				cand.class = classPinned
			}
			if e.betterFor(i, cand, best) {
				best = cand
			}
		}
		if best != out.sel[i] {
			out.sel[i] = best
			for _, nb := range e.g.Neighbors(i) {
				enqueue(nb.Idx)
			}
		}
	}
	return out, nil
}

// randomConfig draws a configuration exercising every announcement
// feature: link subsets, prepending, in- and out-of-topology poisons,
// and action communities.
func randomConfig(rng *stats.RNG, g *topo.Graph, o Origin) Config {
	nl := len(o.Links)
	var cfg Config
	for len(cfg.Anns) == 0 {
		for l := 0; l < nl; l++ {
			if rng.Bool(0.6) {
				cfg.Anns = append(cfg.Anns, Announcement{Link: LinkID(l)})
			}
		}
	}
	for i := range cfg.Anns {
		a := &cfg.Anns[i]
		if rng.Bool(0.4) {
			a.Prepend = rng.Intn(5)
		}
		if rng.Bool(0.5) {
			np := 1 + rng.Intn(2)
			prov := o.Links[a.Link].Provider
			ns := g.Neighbors(prov)
			for k := 0; k < np; k++ {
				switch rng.Intn(4) {
				case 0: // out-of-topology ASN: pure path stuffing
					a.Poison = append(a.Poison, topo.ASN(4200000000+rng.Intn(1000)))
				case 1: // random AS anywhere in the topology
					a.Poison = append(a.Poison, g.ASN(rng.Intn(g.NumASes())))
				default: // provider neighbor, the paper's main target set
					a.Poison = append(a.Poison, g.ASN(ns[rng.Intn(len(ns))].Idx))
				}
			}
		}
		if rng.Bool(0.3) {
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

// TestPropagateMatchesReference checks byte-identical outcomes between
// the optimized engine and the reference implementation over a
// randomized corpus. Each configuration propagates twice through the
// optimized path so scratch reuse (the sync.Pool round trip and the
// sparse cleanup in putScratch) is covered too.
func TestPropagateMatchesReference(t *testing.T) {
	g, o := worldForTest(t, 77, 1500)
	for _, params := range []Params{noiseless(), DefaultParams(77)} {
		e := newEngine(t, g, o, params)
		rng := stats.NewRNG(1234)
		for trial := 0; trial < 60; trial++ {
			cfg := randomConfig(rng, g, o)
			want, err := refPropagate(e, cfg)
			if err != nil {
				t.Fatalf("trial %d: reference: %v", trial, err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := e.Propagate(cfg)
				if err != nil {
					t.Fatalf("trial %d pass %d: %v", trial, pass, err)
				}
				if got.converged != want.converged {
					t.Fatalf("trial %d pass %d (%v): converged=%v, reference %v",
						trial, pass, cfg, got.converged, want.converged)
				}
				for i := range got.sel {
					if got.sel[i] != want.sel[i] {
						t.Fatalf("trial %d pass %d (%v): AS %d selection %+v, reference %+v",
							trial, pass, cfg, i, got.sel[i], want.sel[i])
					}
				}
			}
		}
	}
}

// TestCachedPropagateMatches checks the cache's two kinds of result
// against direct propagation. A seed (a base configuration) is kept and
// pointer-stable. A derived outcome (the rest) equals direct propagation
// by value, comes back without runner-ups and as a new pointer on every
// lookup, and is not kept.
func TestCachedPropagateMatches(t *testing.T) {
	g, o := worldForTest(t, 78, 900)
	e := newEngine(t, g, o, DefaultParams(78))
	cache := NewOutcomeCache()
	rng := stats.NewRNG(99)
	seeds := map[string]bool{}
	derived := 0
	for trial := 0; trial < 20; trial++ {
		cfg := randomConfig(rng, g, o)
		links := make([]LinkID, len(cfg.Anns))
		for i, a := range cfg.Anns {
			links[i] = a.Link
		}
		for _, cfg := range []Config{baseConfig(links...), cfg} {
			first, err := cache.Propagate(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			again, err := cache.Propagate(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := e.Propagate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*Outcome{first, again} {
				for i := range direct.sel {
					if direct.sel[i] != got.at(i) {
						t.Fatalf("trial %d (%v): cached outcome differs at AS %d", trial, cfg, i)
					}
				}
			}
			if isBase(cfg) {
				seeds[cfg.Key()] = true
				if first != again {
					t.Fatalf("trial %d (%v): the cache returned distinct pointers for a seed", trial, cfg)
				}
				continue
			}
			derived++
			if first == again || first.second != nil {
				t.Fatalf("trial %d (%v): a derived outcome was kept, or kept its runner-ups", trial, cfg)
			}
		}
	}
	if size := cache.StatsSnapshot().Size; size != len(seeds) || derived == 0 {
		t.Fatalf("%d resident after %d seed and %d derived configs, want the %d seeds",
			size, len(seeds), derived, len(seeds))
	}
}

// TestConfigKeyCanonical checks that Key is order-insensitive across
// announcement order but sensitive to everything that shapes outcomes.
func TestConfigKeyCanonical(t *testing.T) {
	a := Config{Anns: []Announcement{{Link: 2, Prepend: 1}, {Link: 0, Poison: []topo.ASN{9, 7}}}}
	b := Config{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{9, 7}}, {Link: 2, Prepend: 1}}}
	if a.Key() != b.Key() {
		t.Fatalf("announcement order changed key: %q vs %q", a.Key(), b.Key())
	}
	c := Config{Anns: []Announcement{{Link: 0, Poison: []topo.ASN{7, 9}}, {Link: 2, Prepend: 1}}}
	if a.Key() == c.Key() {
		t.Fatal("poison order is outcome-relevant (AS-path shape) but did not change key")
	}
	d := Config{Anns: []Announcement{{Link: 2, Prepend: 2}, {Link: 0, Poison: []topo.ASN{9, 7}}}}
	if a.Key() == d.Key() {
		t.Fatal("prepend change did not change key")
	}
}

// BenchmarkPropagateReference measures the retained pre-optimization
// implementation on the workload of BenchmarkPropagateDeltaBudget's full
// side, for an on-hardware before/after comparison.
func BenchmarkPropagateReference(b *testing.B) {
	g, o := worldForTest(b, 42, 4000)
	e, err := NewEngine(g, o, DefaultParams(42))
	if err != nil {
		b.Fatal(err)
	}
	cfg := allLinksConfig(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refPropagate(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
