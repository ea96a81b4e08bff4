package bgp

import (
	"math/bits"
	"sync"

	"spooftrack/internal/topo"
)

// Outcome is the routing state after a configuration converges: every
// AS's selected route toward the origin prefix. Outcomes are immutable
// and safe for concurrent reads.
//
// An outcome is held one of two ways, and every query answers the same
// for both. A dense outcome keeps a selection and an export class per AS
// (sel, sendCls), and while it can seed a delta its runner-ups too
// (second): Propagate, PropagateDeltaInfo and every outcome an
// OutcomeCache keeps are dense. A patch outcome (sel == nil) is how an
// OutcomeCache hands back a configuration it derived from a resident
// seed: the seed, the carry-over that maps the seed's routes into the
// configuration, the selections of only the ASes the delta step left
// different from that carry, and a one-byte catchment per AS
// (outcomePatch).
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
	// other outcome it computes without it (see OutcomeCache).
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
	// patch holds a patch outcome's state; its seed is nil on a dense one.
	patch outcomePatch
}

// outcomePatch is a derived outcome as a difference from the seed it was
// derived from. Reading AS i's selection costs one bitmap word: a touched
// AS's selection sits in sel at its rank among the touched ASes, and any
// other AS holds the seed's selection carried over — announcement index
// remapped and AS-path length shifted as PropagateDeltaInfo's carry-over
// pass does. A delta step re-decides a small catchment: on a campaign a
// patch holds about an eighth of the ASes' selections, and with the
// catchment row about a fifth of a dense outcome's bytes.
type outcomePatch struct {
	// seed is a dense, converged outcome an OutcomeCache holds: immutable
	// and never released.
	seed    *Outcome
	seedSel []selection // seed.sel, one load nearer
	// self is the patch outcome's own address, which Release files on the
	// engine's free list. Storing a pointer read through the receiver,
	// rather than the receiver itself, keeps Release from moving every
	// dense Outcome value it is called on to the heap.
	self *Outcome
	// carry maps each of the seed's announcements into the configuration,
	// announcement ai at carry[ai+1]; carry[0] maps noRoute's index, -1,
	// to itself.
	carry []annCarry
	// words is the touched bitmap, 64 ASes per word.
	words []patchWord
	// sel and cls are the touched ASes' selections and export classes, in
	// ascending AS index.
	sel []selection
	cls []int8
	// links is every AS's catchment, one byte per AS. A truth campaign
	// reads the catchment of every AS of every derived outcome, and
	// through the bitmap and the carry that read costs about three times
	// a dense outcome's; written out once per derivation it costs less.
	links []LinkID
}

// annCarry is where the routes of one of a seed's announcements go in a
// derived configuration.
type annCarry struct {
	to    int8  // the announcement's index there, -1 if its routes are withdrawn
	shift int32 // the AS-path length shift its routes take
}

// patchWord is one word of a patch's touched bitmap and the number of
// touched ASes in the words before it.
type patchWord struct {
	bits uint64
	rank int32
}

// carryOver moves a seed AS's selection, in place, into a derived
// configuration (carry as in outcomePatch): what the AS selects there
// unless the delta step re-decides it. It works on the stored selection
// because assigning whole selections one by one stalls on every store.
func carryOver(s *selection, carry []annCarry) {
	c := carry[int(s.ann)+1]
	if c.to < 0 {
		*s = noRoute
		return
	}
	s.ann = c.to
	s.pathLen += c.shift
}

// entry returns where AS i's selection is stored: its own patch entry
// when the delta step changed it, and then touched is set, or the seed's
// entry, which reads through the carry of its announcement.
func (p *outcomePatch) entry(i int) (s *selection, touched bool) {
	w := p.words[i>>6]
	if bit := uint64(1) << (uint(i) & 63); w.bits&bit != 0 {
		return &p.sel[int(w.rank)+bits.OnesCount64(w.bits&(bit-1))], true
	}
	return &p.seedSel[i], false
}

// ref is Outcome.ref for a patch.
func (p *outcomePatch) ref(i int) (*selection, annCarry) {
	s, touched := p.entry(i)
	if touched {
		return s, annCarry{to: s.ann}
	}
	return s, p.carry[int(s.ann)+1]
}

// materialize writes the patch out densely: every AS's selection into
// sel and its export class into cls.
func (p *outcomePatch) materialize(sel []selection, cls []int8) {
	copy(sel, p.seedSel)
	for i := range sel {
		carryOver(&sel[i], p.carry)
	}
	copy(cls, p.seed.sendCls)
	k := 0
	for w, word := range p.words {
		for b := word.bits; b != 0; b &= b - 1 {
			i := w<<6 | bits.TrailingZeros64(b)
			sel[i], cls[i] = p.sel[k], p.cls[k]
			k++
		}
	}
}

// ref returns where the selection of the AS at dense index i is stored
// and the carry to read it through: its announcement's index in the
// outcome's configuration (c.to, negative when i has no route) and the
// AS-path length shift (c.shift). An AS without a route holds noRoute,
// whose ann is -1. The accessors read single fields through it rather
// than copy a selection, which is five fields and so always goes through
// memory. The hot reads, CatchmentOf and a path walk's hop, do not go
// through it: they test for a dense outcome themselves and inline.
func (o *Outcome) ref(i int) (s *selection, c annCarry) {
	if o.sel != nil {
		s = &o.sel[i]
		return s, annCarry{to: s.ann}
	}
	return o.patch.ref(i)
}

// hop returns the next hop on the route of the AS at dense index i, which
// must have one: a path walk's step. The carry-over leaves next hops as
// the seed had them.
func (o *Outcome) hop(i int) int {
	if o.sel != nil {
		return int(o.sel[i].nextHop)
	}
	s, _ := o.patch.entry(i)
	return int(s.nextHop)
}

// outcomeArrays is the engine's free list of the per-AS arrays behind
// dense Outcomes, by far the dominant per-propagation allocation:
// selection arrays (sel and second share the shape, 12 bytes per AS
// each) and export-class arrays (sendCls, 1 byte per AS). Outcome.Release
// returns all of an outcome's arrays, an OutcomeCache returns the
// runner-ups it sheds, and newOutcome takes from here before it
// allocates. Released patch outcomes come back whole, with their patch
// buffers, for takePatch. Like cluster's free lists, and unlike a
// sync.Pool, it keeps what it holds across collections, so whether a
// propagation allocates follows the work, not the collector. It holds
// only what was returned and not yet taken again.
type outcomeArrays struct {
	mu      sync.Mutex
	sels    [][]selection
	cls     [][]int8
	patches []*Outcome
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

// takePatch returns a released patch outcome to reuse, its buffers
// intact, or a new one when the engine holds none.
func (e *Engine) takePatch() *Outcome {
	f := &e.free
	f.mu.Lock()
	defer f.mu.Unlock()
	k := len(f.patches)
	if k == 0 {
		o := &Outcome{engine: e}
		o.patch.self = o
		return o
	}
	o := f.patches[k-1]
	f.patches[k-1] = nil
	f.patches = f.patches[:k-1]
	return o
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
// not (a derived outcome, which only its caller holds), its arrays or
// its patch feed the next propagation — a released patch outcome is
// handed out again, at the same address, by a later derivation. Releasing
// a zero or already released Outcome is a no-op; an outcome whose
// runner-ups a cache shed returns the arrays it still holds.
func (o *Outcome) Release() {
	if o.engine == nil || o.cached {
		return
	}
	f := &o.engine.free
	if o.patch.seed != nil {
		// The patch's buffers stay with the outcome, which takePatch hands
		// to the next derivation whole.
		o.patch.seed, o.patch.seedSel = nil, nil
		o.converged = false
		f.mu.Lock()
		f.patches = append(f.patches, o.patch.self)
		f.mu.Unlock()
		return
	}
	if o.sel == nil {
		return
	}
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
func (o *Outcome) HasRoute(i int) bool { return o.CatchmentOf(i) != NoLink }

// CatchmentOf returns the peering link whose catchment contains the AS at
// dense index i, or NoLink if i has no route.
func (o *Outcome) CatchmentOf(i int) LinkID {
	if o.sel == nil {
		return o.patch.links[i]
	}
	if a := o.sel[i].ann; a >= 0 {
		return o.cfg.Anns[a].Link
	}
	return NoLink
}

// CatchmentVector returns, for every AS, the link of its catchment
// (NoLink for ASes with no route). The slice is freshly allocated.
func (o *Outcome) CatchmentVector() []LinkID {
	v := make([]LinkID, o.engine.g.NumASes())
	for i := range v {
		v[i] = o.CatchmentOf(i)
	}
	return v
}

// NextHop returns the dense index of the next-hop AS on i's route, or -1
// if the route is a direct origin link (or i has no route).
func (o *Outcome) NextHop(i int) int {
	s, c := o.ref(i)
	if c.to < 0 {
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
	_, c := o.ref(i)
	ann := o.cfg.Anns[c.to]
	path := make([]topo.ASN, 0, hops+ann.PathLen())
	for hop := i; hop != -1; hop = o.hop(hop) {
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
	if !o.HasRoute(i) {
		return dst
	}
	for hop := i; hop != -1; hop = o.hop(hop) {
		dst = append(dst, hop)
	}
	return dst
}

// DataPathLen returns len(DataPath(i)) without building the path: the
// number of topology ASes a packet from i traverses, i included, and 0
// if i has no route.
func (o *Outcome) DataPathLen(i int) int {
	if !o.HasRoute(i) {
		return 0
	}
	n := 0
	for hop := i; hop != -1; hop = o.hop(hop) {
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
	s, c := o.ref(i)
	if c.to < 0 {
		return -1
	}
	return int(s.pathLen + c.shift)
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
	s, c := o.ref(i)
	if c.to < 0 {
		return RouteNone
	}
	switch o.engine.trueClass(i, *s) {
	case classCustomer:
		return RouteCustomer
	case classPeer:
		return RoutePeer
	default:
		return RouteProvider
	}
}
