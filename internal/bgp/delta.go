package bgp

import (
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
// prev must be the outcome this engine computed for prevCfg, with its
// runner-ups: every outcome Propagate and PropagateDeltaInfo return has
// them, while an OutcomeCache sheds them from the entries that cannot
// seed (see OutcomeCache). When prev is unusable (nil, shed, released,
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
	if prev == nil || prev.engine != e || !prev.converged || prev.second == nil ||
		prev.sendCls == nil || !configsIndexIdentical(prevCfg, prev.cfg) {
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
	traced := sp != nil

	s := e.getScratch()
	defer e.putScratch(s, cfg)
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
			if prevSel[i].class != classInvalid && work[prevSel[i].ann+1].nbrs {
				for _, nb := range e.g.Neighbors(i) {
					s.deltaSeed[nb.Idx] = true
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
	out := e.newOutcome(cfg)
	sel := out.sel
	copy(out.second, prev.second)
	copy(out.sendCls, prev.sendCls)
	s.sendClass = out.sendCls
	prevSecond := prev.second
	seedList := s.seeds[:0]

	// When every announcement keeps its index (the whole prepend, poison,
	// and community space of a campaign walk), carried selections need no
	// remap: bulk-copy the selection state and touch only members of
	// changed announcements plus the explicitly marked seeds.
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
		copy(sel, prev.sel)
		for i := 0; i < n; i++ {
			seed := s.deltaSeed[i]
			if seed {
				s.deltaSeed[i] = false
			}
			if w := &work[sel[i].ann+1]; w.any {
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
			ps := prevSel[i]
			cs := noRoute
			if ps.class != classInvalid {
				ai := int(ps.ann)
				if ni := d.PrevToNew[ai]; ni >= 0 {
					cs = ps
					cs.ann = ni
					cs.pathLen += d.LenShift[ai]
				}
				w := &work[ai+1]
				seed = seed || w.blanket
				// Length-shifted member: re-decide only when the shifted
				// route no longer strictly beats the runner-up bound.
				if !seed && w.prune && !e.betterFor(i, cs, prevSecond[i]) {
					seed = true
				}
			}
			sel[i] = cs
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
		out.Release() // the carried arrays feed the full run's pool pull
		full, err := e.PropagateTraced(cfg, sp)
		info := DeltaInfo{Mode: DeltaFullFrontier, Seeds: seeds}
		e.endDeltaSpan(sp, info, n, len(cfg.Anns))
		return full, info, err
	}

	// Enqueue shortest-carried-length first: upstream before downstream.
	s.seedQueueByLen(sel, seedList)
	events, _, converged := e.runQueue(cfg, s, sel, out.second, traced)
	if !converged {
		// Event budget exhausted (a policy dispute reachable from the
		// carried state). Propagate freezes disputes deterministically
		// from *its* start state, so matching it byte-for-byte means
		// discarding the partial delta state and re-running in full.
		out.Release()
		full, err := e.PropagateTraced(cfg, sp)
		info := DeltaInfo{Mode: DeltaFullBudget, Seeds: seeds, Events: events}
		e.endDeltaSpan(sp, info, n, len(cfg.Anns))
		return full, info, err
	}
	out.converged = true
	info := DeltaInfo{Mode: DeltaApplied, Seeds: seeds, Events: events}
	e.endDeltaSpan(sp, info, n, len(cfg.Anns))
	return out, info, nil
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
