package bgp

import (
	"sync"

	"spooftrack/internal/topo"
)

// Outcome is the routing state after a configuration converges: every
// AS's selected route toward the origin prefix. Outcomes are immutable
// and safe for concurrent reads.
type Outcome struct {
	engine    *Engine
	cfg       Config
	sel       []selection
	converged bool
	// second[i] is the runner-up of AS i's last decision: the best offer
	// that lost to sel[i] (noRoute when no alternative existed). It is an
	// upper bound on every alternative offer at i, which is what lets
	// PropagateDeltaInfo prune worsened-but-still-winning routes from the
	// dirty frontier without re-deciding them. Only a delta seed reads it.
	// Propagate and PropagateDeltaInfo always return it; an OutcomeCache
	// keeps only outcomes that can seed a later delta, and hands back every
	// other outcome it computes with second == nil (see OutcomeCache).
	second []selection
	// sendCls[i] is the export class of sel[i] (trueClass, resolving
	// pinned overrides), persisted so PropagateDeltaInfo can carry it with
	// one copy instead of an O(n) recomputation, and so Engine.Audit can
	// read it. Entries are meaningful only where sel[i] is valid.
	sendCls []int8
	// cached is set once an OutcomeCache holds the outcome, before any
	// caller sees it, and never cleared: Release leaves such an outcome
	// alone, since other callers may hold the same pointer.
	cached bool
}

// outcomeArrays is the engine's free list of the per-AS arrays behind
// Outcomes, by far the dominant per-propagation allocation: selection
// arrays (sel and second share the shape, 12 bytes per AS each) and
// export-class arrays (sendCls, 1 byte per AS). Outcome.Release returns
// all of an outcome's arrays, an OutcomeCache returns the runner-ups it
// sheds, and newOutcome takes from here before it allocates. Like
// cluster's free lists, and unlike a sync.Pool, it keeps what it holds
// across collections, so whether a propagation allocates follows the
// work, not the collector. It holds only arrays returned and not yet
// taken again.
type outcomeArrays struct {
	mu   sync.Mutex
	sels [][]selection
	cls  [][]int8
}

// take pops the last array off list, or allocates one of length n when
// the list is empty. Caller holds mu.
func take[T any](list *[][]T, n int) []T {
	k := len(*list)
	if k == 0 {
		return make([]T, n)
	}
	a := (*list)[k-1]
	(*list)[k-1] = nil
	*list = (*list)[:k-1]
	return a
}

// newOutcome builds an Outcome whose arrays come from the engine's free
// list when it holds any. Recycled arrays are NOT zeroed — every
// propagation path overwrites them in full (Propagate's noRoute init
// sweep, PropagateDeltaInfo's carry copy) before any read.
func (e *Engine) newOutcome(cfg Config) Outcome {
	n := e.g.NumASes()
	f := &e.free
	f.mu.Lock()
	defer f.mu.Unlock()
	return Outcome{
		engine:  e,
		cfg:     cfg,
		sel:     take(&f.sels, n),
		second:  take(&f.sels, n),
		sendCls: take(&f.cls, n),
	}
}

// Release returns the Outcome's arrays to its engine for reuse by later
// propagations. It is optional and purely a performance hint: campaign
// loops that inspect each outcome and move on can cut the dominant
// per-propagation allocations (and the GC churn behind them) to zero.
//
// The caller must be completely done with the Outcome: after Release it
// must not be used again — not as a source of route queries, and not as
// the prev of a PropagateDeltaInfo call. An outcome an OutcomeCache
// handed out may always be released: if the cache holds it (a seed),
// Release is a no-op and the outcome stays valid for every holder; if
// not (a derived outcome, which only its caller holds), its arrays feed
// the next propagation. Releasing a zero or already released Outcome is
// a no-op; an outcome whose runner-ups a cache shed returns the arrays
// it still holds.
func (o *Outcome) Release() {
	if o.engine == nil || o.sel == nil || o.cached {
		return
	}
	f := &o.engine.free
	f.mu.Lock()
	f.sels = append(f.sels, o.sel)
	if o.second != nil {
		f.sels = append(f.sels, o.second)
	}
	f.cls = append(f.cls, o.sendCls)
	f.mu.Unlock()
	o.sel, o.second, o.sendCls = nil, nil, nil
	o.converged = false
}

// shedSecond hands the outcome's runner-up array back to its engine. The
// outcome keeps its selections and export classes, so every query and
// Engine.Audit still work; PropagateDeltaInfo treats it as an unusable
// prev and runs in full. Only an owner no other goroutine can see the
// outcome through may call it.
func (o *Outcome) shedSecond() {
	f := &o.engine.free
	f.mu.Lock()
	f.sels = append(f.sels, o.second)
	f.mu.Unlock()
	o.second = nil
}

// Converged reports whether route processing reached a fixpoint. False
// indicates a policy dispute froze mid-oscillation (rare; the state is
// still deterministic and usable, mirroring persistently oscillating
// real-world configurations).
func (o *Outcome) Converged() bool { return o.converged }

// Config returns the configuration that produced this outcome.
func (o *Outcome) Config() Config { return o.cfg }

// Graph returns the topology the outcome was computed over.
func (o *Outcome) Graph() *topo.Graph { return o.engine.g }

// HasRoute reports whether the AS at dense index i has any route to the
// prefix.
func (o *Outcome) HasRoute(i int) bool { return o.sel[i].class != classInvalid }

// CatchmentOf returns the peering link whose catchment contains the AS at
// dense index i, or NoLink if i has no route.
func (o *Outcome) CatchmentOf(i int) LinkID {
	s := o.sel[i]
	if s.class == classInvalid {
		return NoLink
	}
	return o.cfg.Anns[s.ann].Link
}

// CatchmentVector returns, for every AS, the link of its catchment
// (NoLink for ASes with no route). The slice is freshly allocated.
func (o *Outcome) CatchmentVector() []LinkID {
	v := make([]LinkID, len(o.sel))
	for i := range o.sel {
		v[i] = o.CatchmentOf(i)
	}
	return v
}

// NextHop returns the dense index of the next-hop AS on i's route, or -1
// if the route is a direct origin link (or i has no route).
func (o *Outcome) NextHop(i int) int {
	s := o.sel[i]
	if s.class == classInvalid {
		return -1
	}
	return int(s.nextHop)
}

// ASPath returns the control-plane AS-path the AS at dense index i
// selects, as a BGP collector peering with i would observe it: i's own
// ASN first, then the ASNs along the forwarding chain, then the
// announcement's initial path (origin prepends and poison sentinels).
// It returns nil if i has no route.
func (o *Outcome) ASPath(i int) []topo.ASN {
	hops := o.DataPathLen(i)
	if hops == 0 {
		return nil
	}
	ann := o.cfg.Anns[o.sel[i].ann]
	path := make([]topo.ASN, 0, hops+ann.PathLen())
	for hop := i; hop != -1; hop = int(o.sel[hop].nextHop) {
		path = append(path, o.engine.g.ASN(hop))
	}
	return ann.appendInitialPath(path, o.engine.origin.ASN)
}

// DataPath returns the AS-level data-plane path from the AS at dense
// index i to the origin as the dense indices of the traversed topology
// ASes (starting with i itself). Unlike ASPath it contains no prepend or
// poison stuffing — the data plane does not see those. The origin AS
// (external to the topology) is implicitly the final hop. It returns nil
// if i has no route.
func (o *Outcome) DataPath(i int) []int {
	return o.AppendDataPath(nil, i)
}

// AppendDataPath appends DataPath(i) to dst and returns the extended
// slice, so a caller walking many paths can reuse one buffer. dst comes
// back unchanged if i has no route.
func (o *Outcome) AppendDataPath(dst []int, i int) []int {
	if o.sel[i].class == classInvalid {
		return dst
	}
	for hop := i; hop != -1; hop = int(o.sel[hop].nextHop) {
		dst = append(dst, hop)
	}
	return dst
}

// DataPathLen returns len(DataPath(i)) without building the path: the
// number of topology ASes a packet from i traverses, i included, and 0
// if i has no route.
func (o *Outcome) DataPathLen(i int) int {
	if o.sel[i].class == classInvalid {
		return 0
	}
	n := 0
	for hop := i; hop != -1; hop = int(o.sel[hop].nextHop) {
		n++
	}
	return n
}

// PathLen returns the AS-path length of the route as received by i —
// the number of ASNs in the path i selected, including announcement
// stuffing but excluding i's own ASN (standard BGP semantics: a router
// prepends its own ASN only when re-exporting). It returns -1 if i has
// no route.
func (o *Outcome) PathLen(i int) int {
	s := o.sel[i]
	if s.class == classInvalid {
		return -1
	}
	return int(s.pathLen)
}

// RouteClass describes how an AS learned its selected route.
type RouteClass int8

const (
	// RouteNone means the AS has no route.
	RouteNone RouteClass = iota
	// RouteCustomer means the route was learned from a customer (or is
	// a direct origin announcement, the origin being a customer).
	RouteCustomer
	// RoutePeer means the route was learned from a peer.
	RoutePeer
	// RouteProvider means the route was learned from a provider.
	RouteProvider
)

// ClassOf returns how the AS at dense index i learned its route, based
// on the true relationship to its next hop (pinned overrides resolved).
func (o *Outcome) ClassOf(i int) RouteClass {
	s := o.sel[i]
	if s.class == classInvalid {
		return RouteNone
	}
	switch o.engine.trueClass(i, s) {
	case classCustomer:
		return RouteCustomer
	case classPeer:
		return RoutePeer
	default:
		return RouteProvider
	}
}
