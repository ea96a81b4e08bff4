package bgp

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
)

// Params configures the realism knobs of the routing engine.
type Params struct {
	// Seed drives the deterministic tiebreak priorities and the policy
	// noise assignment.
	Seed uint64
	// PolicyNoiseFrac is the fraction of ASes whose LocalPref is pinned
	// to a random neighbor instead of following Gao-Rexford preferences.
	// The paper's Fig. 9 observes that a minority of ASes deviate from
	// the best-relationship criterion.
	PolicyNoiseFrac float64
	// IgnorePoisonFrac is the fraction of ASes with BGP loop prevention
	// disabled (e.g., for multi-site traffic engineering, §III-A-c);
	// poisoning such an AS has no effect.
	IgnorePoisonFrac float64
	// LengthBlindFrac is the fraction of ASes whose later tiebreakers
	// (IGP cost, MED, route age) dominate AS-path length: they pick
	// among equally-preferred routes by local priority regardless of
	// length. These ASes violate the shortest-path criterion audited in
	// Fig. 9 and resist prepending-based manipulation.
	LengthBlindFrac float64
	// CommunitySupportFrac is the fraction of ASes that implement
	// customer-facing action communities (ActNoExportTo / ActPrependTo).
	// Communities targeting other ASes are ignored.
	CommunitySupportFrac float64
	// Tier1PoisonFilter enables the route-leak heuristic: tier-1 ASes
	// drop customer-learned routes whose AS-path contains another
	// tier-1 (§III-A-c).
	Tier1PoisonFilter bool
}

// DefaultParams returns the engine parameters used by the default world:
// modest policy noise consistent with the compliance levels in Fig. 9.
func DefaultParams(seed uint64) Params {
	return Params{
		Seed:                 seed,
		PolicyNoiseFrac:      0.08,
		IgnorePoisonFrac:     0.10,
		LengthBlindFrac:      0.12,
		CommunitySupportFrac: 0.60,
		Tier1PoisonFilter:    true,
	}
}

// Engine propagates announcement configurations over a topology and
// computes, for every AS, its chosen route and catchment. An Engine is
// immutable after construction and safe for concurrent Propagate calls;
// per-propagation working state lives in a pooled scratch (scratch.go),
// so repeated calls on the same engine allocate only each Outcome's
// per-AS arrays or patch, and not those while released or shed ones are
// free.
type Engine struct {
	g      *topo.Graph
	origin Origin
	params Params

	// pinned[i] is the dense index of the neighbor the AS prefers above
	// all relationship classes, or -1 to follow Gao-Rexford.
	pinned []int
	// ignorePoison[i] marks ASes with loop prevention disabled.
	ignorePoison []bool
	// lengthBlind[i] marks ASes whose tiebreak priority dominates
	// AS-path length.
	lengthBlind []bool
	// honorsComm[i] marks ASes implementing action communities.
	honorsComm []bool
	// t1f[i] folds params.Tier1PoisonFilter && g.IsTier1(i) into one
	// per-event load.
	t1f []bool
	// off and adj are the engine's own flat adjacency: AS i's neighbors
	// are adj[off[i]:off[i+1]], in the graph's (index-sorted) order, each
	// slot carrying the neighbor, its relationship and the tiebreak
	// priority i assigns it. One 8-byte slot per directed edge replaces a
	// 16-byte topo.Neighbor plus a separate priority row on the decision
	// loop's hottest walk.
	off []int32
	adj []adjSlot
	// rsl[k] is, for slot k = the slot of neighbor j in i's row, the slot
	// of i in j's row, so the wake filter reads the exact tiebreak
	// priority j assigns to an offer from i (adj[rsl[k]].pri) without
	// searching j's row. Purely graph-determined, shared across Perturbed
	// clones, as off is.
	rsl []int32

	scratch sync.Pool     // *propScratch
	free    outcomeArrays // fed by Outcome.Release and OutcomeCache's shedding
}

// adjSlot is one directed edge of the engine's adjacency, 8 bytes. pri
// is the tiebreak priority the row's AS assigns the neighbor (lower
// wins): a seeded stand-in for IGP cost / router-id tiebreaks.
type adjSlot struct {
	idx int32    // dense index of the neighbor
	pri int16    // a rank below the row's length
	rel topo.Rel // the neighbor's relationship to the row's AS
}

// row returns AS i's adjacency slots.
func (e *Engine) row(i int) []adjSlot { return e.adj[e.off[i]:e.off[i+1]] }

// NewEngine builds an engine for the origin over the graph. It validates
// that every link's provider index is in range, that the origin ASN
// does not collide with a topology AS, and that no AS has more than
// math.MaxInt16 neighbors (a tiebreak priority is a rank below the
// degree, stored in 16 bits).
func NewEngine(g *topo.Graph, origin Origin, params Params) (*Engine, error) {
	if len(origin.Links) == 0 {
		return nil, fmt.Errorf("bgp: origin has no peering links")
	}
	if len(origin.Links) > MaxLinks {
		return nil, fmt.Errorf("bgp: origin has %d peering links, a LinkID holds at most %d", len(origin.Links), MaxLinks)
	}
	if _, ok := g.Index(origin.ASN); ok {
		return nil, fmt.Errorf("bgp: origin AS%d collides with a topology AS", origin.ASN)
	}
	for i, l := range origin.Links {
		if l.Provider < 0 || l.Provider >= g.NumASes() {
			return nil, fmt.Errorf("bgp: link %d provider index %d out of range", i, l.Provider)
		}
	}
	n := g.NumASes()
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		if d := g.Degree(i); d > math.MaxInt16 {
			return nil, fmt.Errorf("bgp: AS%d has %d neighbors, a tiebreak priority ranks at most %d", g.ASN(i), d, math.MaxInt16)
		}
		off[i+1] = off[i] + int32(g.Degree(i))
	}
	e := &Engine{
		g:            g,
		origin:       origin,
		params:       params,
		pinned:       make([]int, n),
		ignorePoison: make([]bool, n),
		lengthBlind:  make([]bool, n),
		honorsComm:   make([]bool, n),
		t1f:          make([]bool, n),
		off:          off,
		adj:          make([]adjSlot, off[n]),
	}
	rng := stats.NewRNG(params.Seed ^ 0x5b0ff7acc0ffee)
	for i := 0; i < n; i++ {
		ns := g.Neighbors(i)
		e.t1f[i] = params.Tier1PoisonFilter && g.IsTier1(i)
		e.pinned[i] = -1
		if len(ns) > 0 && rng.Bool(params.PolicyNoiseFrac) {
			e.pinned[i] = ns[rng.Intn(len(ns))].Idx
		}
		e.ignorePoison[i] = rng.Bool(params.IgnorePoisonFrac)
		e.lengthBlind[i] = rng.Bool(params.LengthBlindFrac)
		e.honorsComm[i] = rng.Bool(params.CommunitySupportFrac)
		row := e.row(i)
		for k, nb := range ns {
			row[k] = adjSlot{idx: int32(nb.Idx), rel: nb.Rel}
		}
		drawPriorities(rng, row)
	}
	e.rsl = e.reverseSlots()
	return e, nil
}

// drawPriorities gives the row's neighbors a seeded permutation of the
// ranks 0..len(row)-1 as tiebreak priorities: the draws of
// rng.Perm(len(row)), without its allocation.
func drawPriorities(rng *stats.RNG, row []adjSlot) {
	for k := range row {
		row[k].pri = int16(k)
	}
	rng.Shuffle(len(row), func(a, b int) { row[a].pri, row[b].pri = row[b].pri, row[a].pri })
}

// reverseSlots builds rsl: for every slot k of AS i's row naming
// neighbor j, the slot of i in j's (index-sorted) row.
func (e *Engine) reverseSlots() []int32 {
	rsl := make([]int32, len(e.adj))
	for i := 0; i+1 < len(e.off); i++ {
		for k := e.off[i]; k < e.off[i+1]; k++ {
			j := e.adj[k].idx
			lo, hi := e.off[j], e.off[j+1]
			for lo < hi {
				mid := int32(uint32(lo+hi) >> 1)
				if e.adj[mid].idx < int32(i) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			rsl[k] = lo
		}
	}
	return rsl
}

// Graph returns the topology the engine routes over.
func (e *Engine) Graph() *topo.Graph { return e.g }

// Perturbed clones the engine, re-drawing the tiebreak priorities and
// policy-noise assignments of a seeded fraction of ASes. This models
// route churn between two points in time: most of the Internet decides
// exactly as before, a few networks re-homed, re-tuned IGP costs, or
// changed policy.
func (e *Engine) Perturbed(frac float64, seed uint64) (*Engine, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("bgp: perturbation fraction %v out of [0,1]", frac)
	}
	n := e.g.NumASes()
	cp := &Engine{
		g:            e.g,
		origin:       e.origin,
		params:       e.params,
		pinned:       append([]int(nil), e.pinned...),
		ignorePoison: append([]bool(nil), e.ignorePoison...),
		lengthBlind:  append([]bool(nil), e.lengthBlind...),
		honorsComm:   append([]bool(nil), e.honorsComm...),
		t1f:          e.t1f,
		off:          e.off,
		adj:          append([]adjSlot(nil), e.adj...), // perturbed rows rewritten below
		rsl:          e.rsl,
	}
	rng := stats.NewRNG(seed ^ 0xd21f7ed)
	for i := 0; i < n; i++ {
		if !rng.Bool(frac) {
			continue
		}
		row := cp.row(i)
		drawPriorities(rng, row)
		cp.pinned[i] = -1
		if len(row) > 0 && rng.Bool(e.params.PolicyNoiseFrac) {
			cp.pinned[i] = int(row[rng.Intn(len(row))].idx)
		}
		cp.lengthBlind[i] = rng.Bool(e.params.LengthBlindFrac)
	}
	return cp, nil
}

// Origin returns the origin AS definition.
func (e *Engine) Origin() Origin { return e.origin }

// PinnedNeighbor returns the dense index of the neighbor AS i pins its
// LocalPref to, or -1 if i follows Gao-Rexford preferences.
func (e *Engine) PinnedNeighbor(i int) int { return e.pinned[i] }

// route classes, ordered by decreasing LocalPref.
const (
	classPinned   int8 = 0 // policy-noise override
	classCustomer int8 = 1
	classPeer     int8 = 2
	classProvider int8 = 3
	classInvalid  int8 = 4
)

// selection is an AS's currently chosen route: 12 bytes, of which an
// Outcome holds one per AS, and a seed outcome two.
type selection struct {
	class   int8
	ann     int8  // index into cfg.Anns; a config has at most MaxLinks
	pri     int16 // tiebreak priority of the next hop at this AS, below its degree
	pathLen int32 // total AS-path length incl. initial announcement path
	nextHop int32 // dense index of next-hop AS, or -1 for a direct origin link
}

var noRoute = selection{class: classInvalid, ann: -1, nextHop: -1, pathLen: 1 << 30, pri: math.MaxInt16}

// betterFor reports whether a beats b in the BGP decision process of AS
// i. Standard ASes compare (LocalPref class, path length, tiebreak);
// length-blind ASes let their local tiebreak dominate length, modeling
// routers whose IGP/MED/age tiebreakers decide before prepending can
// bite.
func (e *Engine) betterFor(i int, a, b selection) bool {
	if a.class != b.class {
		return a.class < b.class
	}
	if e.lengthBlind[i] {
		if a.pri != b.pri {
			return a.pri < b.pri
		}
		if a.pathLen != b.pathLen {
			return a.pathLen < b.pathLen
		}
		return a.ann < b.ann
	}
	if a.pathLen != b.pathLen {
		return a.pathLen < b.pathLen
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.ann < b.ann
}

// maxEvents caps update processing per propagation as a safety net
// against policy dispute wheels; expressed as a multiple of the AS count.
const maxEventsPerAS = 64

// Propagate computes the routing outcome of the configuration: every
// AS's selected route toward the origin prefix, from which catchments and
// AS-paths derive. It is deterministic for a given engine and config.
//
// The Outcome is returned by value so a propagation allocates only the
// per-AS arrays the Outcome owns — and none at all when the caller
// recycles outcomes with Outcome.Release; all other working state is
// recycled through the engine's scratch pool.
func (e *Engine) Propagate(cfg Config) (Outcome, error) {
	return e.PropagateTraced(cfg, nil)
}

// PropagateTraced is Propagate with trace-span parentage: when tracing
// is enabled the propagation's "bgp.propagate" span nests under parent
// (or starts a root span when parent is nil). With tracing disabled the
// only overhead over Propagate is a few atomic loads and one dead
// branch per processed event — the budget BenchmarkPropagateTraced
// enforces.
func (e *Engine) PropagateTraced(cfg Config, parent *trace.Span) (Outcome, error) {
	if err := cfg.Validate(e.origin); err != nil {
		return Outcome{}, err
	}
	sp := trace.StartChild(parent, "bgp.propagate")
	traced := sp != nil
	out := e.newOutcome(cfg)
	out.converged = true
	sel := out.sel
	for i := range sel {
		sel[i] = noRoute
		out.second[i] = noRoute
		out.sendCls[i] = 0 // pooled arrays arrive unzeroed
	}

	s := e.getScratch()
	defer e.putScratch(s, cfg)
	s.sendClass = out.sendCls
	e.buildCtx(s, cfg)

	// Seed the queue with the providers receiving direct announcements,
	// in ascending dense-index order for a deterministic initial sweep.
	seeds := s.seeds[:0]
	for _, a := range cfg.Anns {
		p := e.origin.Links[a.Link].Provider
		if !s.queued[p] {
			s.queued[p] = true
			seeds = append(seeds, p)
		}
	}
	sort.Ints(seeds)
	for _, p := range seeds {
		s.pushQueue(p)
	}
	s.seeds = seeds[:0]

	events, highWater, converged := e.runQueue(cfg, s, sel, out.second, nil, traced)
	// Policy dispute wheels can prevent convergence, as in real BGP; the
	// frozen state is still deterministic and reported as such.
	out.converged = converged
	if traced {
		e.endPropagateSpan(sp, &out, cfg, s, events, highWater)
	}
	return out, nil
}

// runQueue drains the scratch's event queue to a routing fixpoint:
// event-driven (Gauss-Seidel) processing that re-evaluates each popped
// AS's decision against the current state and, on change, enqueues its
// neighbors. Sequential processing plus chainInfo's loop check maintains
// the invariant that next-hop chains are always acyclic. It returns the
// number of events processed, the queue's high-water mark (tracked only
// when traced), and whether a fixpoint was reached before the event
// budget ran out — when it was not, the queue is left non-empty (the
// caller's putScratch drains it) and sel freezes mid-oscillation.
//
// Both Propagate (empty initial state, seeded with the direct-
// announcement providers) and PropagateDeltaInfo (carried previous state,
// seeded with the diff's dirty frontier) converge through this one
// loop, so the two paths cannot drift apart in decision semantics. A
// non-nil changed bitmap gets the bit of every AS whose selection the
// loop rewrites: what a derivation's patch is built from.
func (e *Engine) runQueue(cfg Config, s *propScratch, sel, sel2 []selection, changed []uint64, traced bool) (events, highWater int, converged bool) {
	budget := maxEventsPerAS * e.g.NumASes()
	for s.qlen > 0 {
		if traced && s.qlen > highWater {
			highWater = s.qlen
		}
		i := s.popQueue()
		s.queued[i] = false
		events++
		if events > budget {
			return events, highWater, false
		}
		s.epoch++
		best, second, bestTrue := e.decide(i, cfg, s, sel)
		// The runner-up refreshes even when the selection does not: a
		// neighbor's change may have replaced the best alternative without
		// beating the current best.
		sel2[i] = second
		if best != sel[i] {
			sel[i] = best
			s.sendClass[i] = bestTrue
			if changed != nil {
				changed[i>>6] |= 1 << (uint(i) & 63)
			}
			// Wake filter: a neighbor j only needs to re-decide if it
			// routes through i, or if the best possible version of i's
			// new export could strictly beat j's runner-up bound. The
			// candidate is exact in class, announcement, length lower
			// bound (communities only lengthen), and tiebreak priority
			// (via rsl); the omitted validity checks — poison, loop,
			// route-leak — only weaken or kill the real offer. Below the
			// bound the offer cannot displace sel[j] (which strictly
			// beats sel2[j] by the decide invariant) and cannot
			// invalidate sel2[j] as an upper bound, so skipping the wake
			// preserves both the fixpoint and the prune soundness.
			exportable := best.class != classInvalid
			cls := bestTrue
			for k, end := e.off[i], e.off[i+1]; k < end; k++ {
				nb := e.adj[k]
				j := int(nb.idx)
				if s.queued[j] {
					continue
				}
				if sel[j].nextHop != int32(i) {
					if !exportable {
						continue
					}
					// Valley-free export: i sends best to j only when it is
					// customer-learned or j is i's customer.
					if cls != classCustomer && nb.rel != topo.RelCustomer {
						continue
					}
					// Class of i's offer from j's point of view.
					oc := classProvider
					switch nb.rel {
					case topo.RelProvider:
						oc = classCustomer
					case topo.RelPeer:
						oc = classPeer
					}
					if e.pinned[j] == i {
						oc = classPinned
					}
					cand := selection{
						class:   oc,
						ann:     best.ann,
						pathLen: best.pathLen + 1,
						nextHop: int32(i),
						pri:     e.adj[e.rsl[k]].pri,
					}
					if !e.betterFor(j, cand, sel2[j]) {
						continue
					}
				}
				s.queued[j] = true
				s.pushQueue(j)
			}
		}
	}
	return events, highWater, true
}

// decide runs the BGP decision process of AS i against the current
// selection state: the best route among direct origin announcements and
// neighbor offers, after export filtering, loop prevention, poisoning,
// communities, and the tier-1 route-leak filter. Alongside the winner it
// returns the runner-up — the best offer that lost (noRoute when the
// winner was the only valid offer) — and the winner's true (un-pinned)
// relationship class, sparing the caller a topology lookup when the
// selection changes.
func (e *Engine) decide(i int, cfg Config, s *propScratch, sel []selection) (selection, selection, int8) {
	best, second := noRoute, noRoute
	// Direct origin routes are class customer.
	bestTrue := classCustomer
	if s.direct[i] {
		// Direct origin announcements (origin is a customer of the
		// provider; always class customer unless pinned elsewhere).
		for ai := range cfg.Anns {
			a := &cfg.Anns[ai]
			if e.origin.Links[a.Link].Provider != i {
				continue
			}
			if row := s.ctx.poisoned[ai]; row != nil && row[i] && !e.ignorePoison[i] {
				continue
			}
			cand := selection{
				class:   classCustomer,
				ann:     int8(ai),
				pathLen: s.ctx.annLen[ai],
				nextHop: -1,
				pri:     -1, // direct customer routes beat equal-length alternatives
			}
			if e.betterFor(i, cand, best) {
				second = best
				best = cand
			} else if e.betterFor(i, cand, second) {
				second = cand
			}
		}
	}
	// Offers from neighbors, based on their current selections.
	pinned := e.pinned[i]
	t1Filter := e.t1f[i]
	for _, nb := range e.row(i) {
		j := int(nb.idx)
		sn := sel[j]
		if sn.class == classInvalid {
			continue
		}
		// Export filter at the sender: customer-learned (or direct
		// origin) routes go to everyone; peer/provider-learned routes
		// only to customers. A pinned selection exports according to
		// the true relationship class of its next hop (cached in
		// sendClass). nb.rel is j's relationship to i from i's view,
		// so i is j's customer exactly when nb.rel is RelProvider.
		if s.sendClass[j] != classCustomer && nb.rel != topo.RelProvider {
			continue
		}
		cand, ok := e.offerFrom(sel, sn, j, nb.rel, i, s, t1Filter)
		if !ok {
			continue
		}
		tc := cand.class
		cand.pri = nb.pri
		if pinned == j {
			cand.class = classPinned
		}
		if e.betterFor(i, cand, best) {
			second = best
			best = cand
			bestTrue = tc
		} else if e.betterFor(i, cand, second) {
			second = cand
		}
	}
	return best, second, bestTrue
}

// endPropagateSpan attaches the propagation's introspection counters to
// its span and ends it: events processed, the ring queue's high-water
// mark, whether this run reset the chain-memo epoch stamps (a fresh,
// never-pooled scratch), and the converged/size attributes.
func (e *Engine) endPropagateSpan(sp *trace.Span, out *Outcome, cfg Config, s *propScratch, events, highWater int) {
	sp.Count("events", int64(events))
	sp.Count("queue_high_water", int64(highWater))
	if s.fresh {
		sp.Count("epoch_resets", 1)
	}
	sp.Set(
		trace.Int("ases", int64(e.g.NumASes())),
		trace.Int("anns", int64(len(cfg.Anns))),
		trace.Bool("converged", out.converged),
	)
	sp.End()
}

// offerFrom computes the route neighbor j, whose relationship to
// receiver i is rel (from i's view), currently exports to i, applying
// loop prevention, poisoning, action communities, and the tier-1
// route-leak filter. The caller must already have checked that sn
// (= sel[j]) is a valid selection and that the valley-free export filter
// admits it toward i; both call sites do so inline because those two
// rejections dominate and the checks are two array reads. The returned
// selection has class set from i's point of view and pri unset.
// recvT1Filter tells whether the receiver applies the route-leak filter.
func (e *Engine) offerFrom(sel []selection, sn selection, j int, rel topo.Rel, i int, s *propScratch, recvT1Filter bool) (selection, bool) {
	ai := int(sn.ann)
	// Action communities at the exporting AS: suppress or lengthen the
	// export toward i if j honors them.
	remotePrepend := int32(0)
	if s.ctx.anyComm && e.honorsComm[j] {
		iASN := e.g.ASN(i)
		nbASN := e.g.ASN(j)
		if hasCommunity(s.ctx.comm.noExport, ai, nbASN, iASN) {
			return selection{}, false
		}
		if hasCommunity(s.ctx.comm.prepend, ai, nbASN, iASN) {
			remotePrepend = remotePrependDepth
		}
	}
	// Loop prevention on the embedded poison sentinels.
	if s.ctx.anyPoison {
		if row := s.ctx.poisoned[ai]; row != nil && row[i] && !e.ignorePoison[i] {
			return selection{}, false
		}
	}
	// Loop prevention on the actual path (reject if i already forwards
	// for this route) and the tier-1 route-leak scan, in one memoized
	// walk of the acyclic next-hop chain.
	onChain, chainT1 := s.chainInfo(sel, e.g, j, i)
	if onChain {
		return selection{}, false
	}
	// Tier-1 route-leak filter: a tier-1 drops customer-learned routes
	// whose path contains another tier-1 (natural or poisoned). A
	// poisoned copy of the receiver's own ASN does not trip the filter —
	// that is plain loop prevention, handled above.
	if recvT1Filter && rel == topo.RelCustomer {
		if s.ctx.anyPoison {
			iASN := e.g.ASN(i)
			for _, p := range s.ctx.poisonTier1[ai] {
				if p != iASN {
					return selection{}, false
				}
			}
		}
		if chainT1 {
			return selection{}, false
		}
	}
	class := classProvider
	switch rel {
	case topo.RelCustomer:
		class = classCustomer
	case topo.RelPeer:
		class = classPeer
	}
	return selection{
		class:   class,
		ann:     sn.ann,
		pathLen: sn.pathLen + 1 + remotePrepend,
		nextHop: int32(j),
	}, true
}

// trueClass maps a selection back to its relationship class (resolving
// pinned overrides) for export decisions.
func (e *Engine) trueClass(owner int, s selection) int8 {
	if s.nextHop == -1 {
		return classCustomer // direct origin announcement: origin is a customer
	}
	rel, ok := e.g.Rel(owner, int(s.nextHop))
	if !ok {
		return classProvider
	}
	switch rel {
	case topo.RelCustomer:
		return classCustomer
	case topo.RelPeer:
		return classPeer
	default:
		return classProvider
	}
}
