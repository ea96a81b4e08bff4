package bgp

import (
	"math/bits"

	"spooftrack/internal/trace"
)

// deltaFrontierFrac is the fallback threshold: when the dirty frontier
// (the ASes that must be seeded into the event queue) exceeds this
// fraction of the topology, an incremental pass would approach the cost
// of a full propagation while paying extra bookkeeping, so
// PropagateDeltaInfo re-runs Propagate instead.
const deltaFrontierFrac = 0.25

// DeltaMode reports which path a PropagateDeltaInfo call took.
type DeltaMode int8

const (
	// DeltaApplied: the incremental pass ran and converged.
	DeltaApplied DeltaMode = iota
	// DeltaNoop: the configurations are identical; the previous selection
	// state was copied verbatim.
	DeltaNoop
	// DeltaFullNoPrev: no usable previous outcome (nil, from another
	// engine, not converged, or prevCfg does not match it); full
	// propagation ran.
	DeltaFullNoPrev
	// DeltaFullFrontier: the dirty frontier exceeded deltaFrontierFrac of
	// the topology; full propagation ran.
	DeltaFullFrontier
	// DeltaFullBudget: the incremental pass hit the event budget without
	// converging (a policy dispute); full propagation ran so the result
	// is byte-identical to what Propagate produces.
	DeltaFullBudget
)

// Incremental reports whether the call avoided a full propagation.
func (m DeltaMode) Incremental() bool { return m == DeltaApplied || m == DeltaNoop }

func (m DeltaMode) String() string {
	switch m {
	case DeltaApplied:
		return "applied"
	case DeltaNoop:
		return "noop"
	case DeltaFullNoPrev:
		return "full_no_prev"
	case DeltaFullFrontier:
		return "full_frontier"
	case DeltaFullBudget:
		return "full_budget"
	default:
		return "unknown"
	}
}

// DeltaInfo describes how a PropagateDeltaInfo call executed, for tests and
// instrumentation.
type DeltaInfo struct {
	Mode DeltaMode
	// Seeds is the size of the dirty frontier: ASes enqueued before the
	// incremental pass (also computed for DeltaFullFrontier, where it is
	// what tripped the fallback; zero for the other full modes).
	Seeds int
	// Events is the number of decision events the incremental pass
	// processed (zero for non-incremental modes except DeltaFullBudget,
	// where it reports the budget spent before falling back).
	Events int
}

// PropagateDeltaInfo computes the routing outcome of cfg incrementally from
// a previously converged outcome: it diffs the two configurations,
// carries every selection the diff cannot affect, and seeds the event
// queue only with the dirty frontier — ASes whose current best route is
// invalidated or could be improved by the change. The result is
// byte-identical to Propagate(cfg) (the equivalence suite in
// delta_test.go enforces this): with valley-free export and Gao-Rexford
// preferences the stable-paths instance has no dispute wheel, so the
// stable state is unique and event-driven processing reaches it from any
// sound starting state; the rare dispute cases fall back to a full run.
//
// prev must be the outcome this engine computed for prevCfg, dense and
// with its runner-ups: every outcome Propagate and PropagateDeltaInfo
// return is, while the derived outcomes an OutcomeCache returns are
// patches over a seed or have shed them (see OutcomeCache). The result
// is always dense. When prev is unusable (nil, a patch, shed, released,
// unconverged, or another engine's), the diff touches too much of the
// topology, or the incremental pass fails to converge,
// PropagateDeltaInfo transparently falls back to a full Propagate —
// callers never need to special-case. The DeltaInfo reports which of
// those paths ran.
//
// A warm call whose previous result was released allocates nothing.
func (e *Engine) PropagateDeltaInfo(prev *Outcome, prevCfg, cfg Config) (Outcome, DeltaInfo, error) {
	return e.PropagateDeltaTraced(prev, prevCfg, cfg, nil)
}

// PropagateDeltaTraced is PropagateDeltaInfo with trace-span parentage; a
// fallback's full "bgp.propagate" span nests under the delta span.
func (e *Engine) PropagateDeltaTraced(prev *Outcome, prevCfg, cfg Config, parent *trace.Span) (Outcome, DeltaInfo, error) {
	if err := cfg.Validate(e.origin); err != nil {
		return Outcome{}, DeltaInfo{}, err
	}
	// The carried state is only sound when prev is this engine's converged
	// fixpoint for prevCfg; the prevCfg cross-check is cheap (a handful of
	// announcements) and guards against callers pairing the wrong config.
	if !e.canSeed(prev) || !configsIndexIdentical(prevCfg, prev.cfg) {
		out, err := e.PropagateTraced(cfg, parent)
		return out, DeltaInfo{Mode: DeltaFullNoPrev}, err
	}

	// Same announcements at the same indices (ConfigDiff.Identity): the
	// previous state carries verbatim.
	if configsIndexIdentical(prev.cfg, cfg) {
		out := e.newOutcome(cfg)
		out.converged = true
		copy(out.sel, prev.sel)
		copy(out.second, prev.second)
		copy(out.sendCls, prev.sendCls)
		return out, DeltaInfo{Mode: DeltaNoop}, nil
	}

	sp := trace.StartChild(parent, "bgp.propagate_delta")
	out := e.newOutcome(cfg)
	s := e.getScratch()
	info := e.deltaRun(s, prev, cfg, out.sel, out.second, out.sendCls, nil, sp != nil)
	e.putScratch(s, cfg)
	if info.Mode != DeltaApplied {
		out.Release() // the carried arrays feed the full run's pool pull
		full, err := e.PropagateTraced(cfg, sp)
		e.endDeltaSpan(sp, info, e.g.NumASes(), len(cfg.Anns))
		return full, info, err
	}
	out.converged = true
	e.endDeltaSpan(sp, info, e.g.NumASes(), len(cfg.Anns))
	return out, info, nil
}

// canSeed reports whether prev can seed a delta step on this engine: one
// of its own converged, dense outcomes that still holds its runner-ups.
func (e *Engine) canSeed(prev *Outcome) bool {
	return prev != nil && prev.engine == e && prev.converged && prev.second != nil && prev.sendCls != nil
}

// derive is PropagateDeltaTraced for an OutcomeCache: it computes cfg's
// outcome from seed, a converged seed outcome the cache holds, and
// returns it as a patch over seed. The delta step runs on dense working
// arrays from the engine's free list, which go back there once the patch
// holds the ASes whose selection ended up different from the seed's
// carried one, at most one per decision event. When the step falls back
// to a full run, or seed cannot seed, derive returns the full run's
// dense outcome instead.
func (e *Engine) derive(seed *Outcome, cfg Config, parent *trace.Span) (*Outcome, DeltaInfo, error) {
	if !e.canSeed(seed) {
		out, info, err := e.PropagateDeltaTraced(seed, seed.Config(), cfg, parent)
		if err != nil {
			return nil, info, err
		}
		return &out, info, nil
	}
	if err := cfg.Validate(e.origin); err != nil {
		return nil, DeltaInfo{}, err
	}
	sp := trace.StartChild(parent, "bgp.propagate_delta")
	work := e.newOutcome(cfg)
	s := e.getScratch()
	info := e.deltaRun(s, seed, cfg, work.sel, work.second, work.sendCls, s.changed, sp != nil)
	var out *Outcome
	if info.Mode == DeltaApplied {
		out = e.takePatch()
		out.cfg = cfg
		out.converged = true
		out.patch.build(seed, s, work.sel, work.sendCls, cfg.Anns)
	}
	e.putScratch(s, cfg)
	work.Release()
	if out == nil {
		full, err := e.PropagateTraced(cfg, sp)
		e.endDeltaSpan(sp, info, e.g.NumASes(), len(cfg.Anns))
		if err != nil {
			return nil, info, err
		}
		return &full, info, nil
	}
	e.endDeltaSpan(sp, info, e.g.NumASes(), len(cfg.Anns))
	return out, info, nil
}

// build fills the patch over seed from a derivation's converged working
// arrays sel and cls for a configuration announcing anns: the carry table
// in s.carry, the ASes runQueue marked in s.changed whose selection
// differs from their carried seed selection (an AS can change and change
// back), and every AS's catchment. It clears s.changed.
func (p *outcomePatch) build(seed *Outcome, s *propScratch, sel []selection, cls []int8, anns []Announcement) {
	p.seed = seed
	p.seedSel = seed.sel
	p.carry = append(p.carry[:0], s.carry...)
	k := 0
	for w, word := range s.changed {
		for b := word; b != 0; b &= b - 1 {
			i := w<<6 | bits.TrailingZeros64(b)
			if isCarried(&sel[i], &seed.sel[i], p.carry) {
				word &^= b & -b
			}
		}
		s.changed[w] = word
		k += bits.OnesCount64(word)
	}
	p.words = resized(p.words, len(s.changed))
	p.sel = regrown(p.sel, k)
	p.cls = regrown(p.cls, k)
	k = 0
	for w, word := range s.changed {
		p.words[w] = patchWord{bits: word, rank: int32(k)}
		for b := word; b != 0; b &= b - 1 {
			i := w<<6 | bits.TrailingZeros64(b)
			p.sel[k], p.cls[k] = sel[i], cls[i]
			k++
		}
		s.changed[w] = 0
	}
	var link [MaxLinks + 1]LinkID // by announcement index + 1, noRoute's -1 at 0
	link[0] = NoLink
	for ai := range anns {
		link[ai+1] = anns[ai].Link
	}
	links := resized(p.links, len(sel))
	for i := range links {
		links[i] = link[int(sel[i].ann)+1]
	}
	p.links = links
}

// isCarried reports whether w is the seed selection s carried through
// carry: whether the delta step left the AS as the carry-over had it.
// It compares field by field; a selection copy goes through memory.
func isCarried(w, s *selection, carry []annCarry) bool {
	c := carry[int(s.ann)+1]
	if c.to < 0 {
		return w.class == classInvalid
	}
	return w.class == s.class && w.ann == c.to && w.pri == s.pri &&
		w.pathLen == s.pathLen+c.shift && w.nextHop == s.nextHop
}

// regrown is resized for a patch's touched entries: a new patch gets
// exactly n, and a recycled one that is too small at least twice what it
// had, so a derive-and-release loop settles after a few derivations.
func regrown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// deltaRun is the incremental pass behind PropagateDeltaTraced and
// derive: it carries prev's state into the working arrays sel, second and
// cls as cfg's starting state, seeds the event queue with the dirty
// frontier only, and drains it to the fixpoint. It reports DeltaApplied
// when the arrays hold cfg's outcome, and DeltaFullFrontier or
// DeltaFullBudget when the caller must run in full instead. It leaves
// prev's carry table in s.carry, and marks every AS whose selection
// runQueue rewrote in changed, when that is non-nil (cleared again on a
// fallback). The caller holds s and releases it.
func (e *Engine) deltaRun(s *propScratch, prev *Outcome, cfg Config, sel, second []selection, cls []int8, changed []uint64, traced bool) DeltaInfo {
	e.buildCtx(s, cfg)
	d := &s.diff
	d.reset(prev.cfg, cfg)
	n := e.g.NumASes()

	// Seeding strategy per previous announcement. Soundness rests on the
	// converged-state invariant that every AS already holds its best
	// response to the current offers:
	//
	//   - Unchanged: routes carry verbatim (announcement index remapped).
	//   - Shifted (pure length change): every member carries with the
	//     shifted length and re-decides only if the shifted route no
	//     longer strictly beats its stored runner-up (prev.second, an
	//     upper bound on every alternative offer — see below). Members
	//     whose worsened route still wins keep it without a decision
	//     event; LenShift < 0 members strictly improve and always prune.
	//   - Shifted with LenShift < 0 (routes improve): the members'
	//     neighbors re-decide — an improved offer can capture a neighbor
	//     without the member's own selection changing (no change event
	//     would wake it).
	//   - Replaced / Removed: members are invalidated to noRoute and
	//     re-derive; each re-gain is a change event that wakes neighbors,
	//     so the withdraw-then-re-offer wave needs no extra seeding.
	//
	// The runner-up prune is sound because prev.second[i] bounds every
	// alternative that did not improve (it was the best loser at i's last
	// decision, and non-improving offers only move down), while every way
	// an alternative can *improve or appear* already re-decides i through
	// another seed: improved offers reach i only via an adjacent member
	// of a LenShift < 0 ann (annWork.nbrs), re-validated offers require i in
	// PoisonTouched (seeded directly) or a t1-filter flip (blanket
	// seeding below), and new or rewired offers arrive as change events
	// from re-deciding neighbors, which wake i through the normal queue.
	//
	// Two validity effects cut across the length reasoning and get their
	// own seeds regardless of shift sign: ASes whose poison membership
	// toggled (loop-prevention validity flipped for exactly them), and —
	// when the tier-1 route-leak filter is active and a *tier-1* poison
	// toggled — the filter's accept/reject decision at every tier-1
	// changes, which can invalidate or free routes at unchanged length,
	// so members and their neighbors are blanket-seeded with no prune.
	na := len(prev.cfg.Anns)
	work := resized(s.work, na+1)
	s.work = work
	work[0] = annWork{}
	anySeedNbrs := false
	for ai := 0; ai < na; ai++ {
		w := annWork{shift: d.LenShift[ai]}
		switch d.PrevChange[ai] {
		case AnnShifted:
			t1Touched := false
			if e.params.Tier1PoisonFilter {
				for _, p := range d.PoisonTouched[ai] {
					if idx, ok := e.g.Index(p); ok && e.g.IsTier1(idx) {
						t1Touched = true
						break
					}
				}
			}
			w.blanket = t1Touched
			w.prune = !t1Touched && w.shift != 0
			if w.shift < 0 || t1Touched {
				w.nbrs = true
				anySeedNbrs = true
			}
		case AnnReplaced, AnnRemoved:
			w.blanket = true
		}
		w.any = w.shift != 0 || w.blanket || w.prune
		work[ai+1] = w
	}

	// Extra seeds outside the member frontier: providers whose direct
	// announcement changed, and poison-toggled ASes. Marks are cleared by
	// the carry-over pass below (or clearDeltaSeeds on fallback), keeping
	// the pooled array all-false.
	for ni := range cfg.Anns {
		if d.NewChange[ni] != AnnUnchanged {
			s.deltaSeed[e.origin.Links[cfg.Anns[ni].Link].Provider] = true
		}
	}
	for ai := 0; ai < na; ai++ {
		for _, p := range d.PoisonTouched[ai] {
			if idx, ok := e.g.Index(p); ok {
				s.deltaSeed[idx] = true
			}
		}
	}
	prevSel := prev.sel
	if anySeedNbrs {
		for i := range prevSel {
			if prevSel[i].class != classInvalid && work[int(prevSel[i].ann)+1].nbrs {
				for _, nb := range e.row(i) {
					s.deltaSeed[nb.idx] = true
				}
			}
		}
	}

	// Carry-over pass: copy (remapped, length-shifted) selections and
	// collect the dirty frontier. Runner-ups and export classes carry
	// verbatim: for an AS that is not re-decided, no alternative offer
	// can have improved (that would have seeded it), so the old runner-up
	// bound still holds, and a carried selection keeps its next hop so
	// its export class cannot change; re-decided ASes get fresh values
	// from decide.
	carry := resized(s.carry, na+1)
	s.carry = carry
	carry[0] = annCarry{to: -1}
	for ai := 0; ai < na; ai++ {
		carry[ai+1] = annCarry{to: int8(d.PrevToNew[ai]), shift: d.LenShift[ai]}
	}
	copy(second, prev.second)
	copy(cls, prev.sendCls)
	s.sendClass = cls
	prevSecond := prev.second
	seedList := s.seeds[:0]

	// The selection state is bulk-copied and then carried in place
	// (carryOver). When every announcement keeps its index (the whole
	// prepend, poison, and community space of a campaign walk), carried
	// selections need no remap: touch only members of changed
	// announcements plus the explicitly marked seeds.
	copy(sel, prev.sel)
	identityMap := len(prev.cfg.Anns) == len(cfg.Anns)
	if identityMap {
		for ai, ni := range d.PrevToNew {
			if int(ni) != ai {
				identityMap = false
				break
			}
		}
	}
	if identityMap {
		for i := 0; i < n; i++ {
			seed := s.deltaSeed[i]
			if seed {
				s.deltaSeed[i] = false
			}
			if w := &work[int(sel[i].ann)+1]; w.any {
				cs := &sel[i]
				cs.pathLen += w.shift
				if !seed {
					if w.blanket {
						seed = true
					} else if w.prune && !e.betterFor(i, *cs, prevSecond[i]) {
						seed = true
					}
				}
			}
			if seed {
				s.queued[i] = true
				seedList = append(seedList, i)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			seed := s.deltaSeed[i]
			s.deltaSeed[i] = false
			if cs := &sel[i]; cs.class != classInvalid {
				w := &work[int(cs.ann)+1]
				carryOver(cs, carry)
				seed = seed || w.blanket
				// Length-shifted member: re-decide only when the shifted
				// route no longer strictly beats the runner-up bound.
				if !seed && w.prune && !e.betterFor(i, *cs, prevSecond[i]) {
					seed = true
				}
			}
			if seed {
				s.queued[i] = true
				seedList = append(seedList, i)
			}
		}
	}
	seeds := len(seedList)
	s.seeds = seedList[:0]

	if seeds > int(deltaFrontierFrac*float64(n)) {
		// Frontier explosion: nothing was pushed yet, so clear the
		// membership bits directly; deltaSeed is already clear.
		for _, i := range seedList {
			s.queued[i] = false
		}
		return DeltaInfo{Mode: DeltaFullFrontier, Seeds: seeds}
	}

	// Enqueue shortest-carried-length first: upstream before downstream.
	s.seedQueueByLen(sel, seedList)
	events, _, converged := e.runQueue(cfg, s, sel, second, changed, traced)
	if !converged {
		// Event budget exhausted (a policy dispute reachable from the
		// carried state). Propagate freezes disputes deterministically
		// from *its* start state, so matching it byte-for-byte means
		// discarding the partial delta state and re-running in full.
		clear(changed)
		return DeltaInfo{Mode: DeltaFullBudget, Seeds: seeds, Events: events}
	}
	return DeltaInfo{Mode: DeltaApplied, Seeds: seeds, Events: events}
}

func (e *Engine) endDeltaSpan(sp *trace.Span, info DeltaInfo, ases, anns int) {
	if sp == nil {
		return
	}
	sp.Count("seeds", int64(info.Seeds))
	sp.Count("events", int64(info.Events))
	sp.Set(
		trace.String("mode", info.Mode.String()),
		trace.Int("ases", int64(ases)),
		trace.Int("anns", int64(anns)),
	)
	sp.End()
}

// configsIndexIdentical reports whether two configurations are the same
// announcement-for-announcement at the same indices (the strict sense
// PropagateDeltaInfo needs: prev.sel's ann indices must mean in prevCfg what
// they meant in the config that produced prev).
func configsIndexIdentical(a, b Config) bool {
	if len(a.Anns) != len(b.Anns) {
		return false
	}
	for i := range a.Anns {
		if !annEqual(&a.Anns[i], &b.Anns[i]) {
			return false
		}
	}
	return true
}
