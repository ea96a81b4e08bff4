package bgp

import "spooftrack/internal/topo"

// PolicyAudit reports, for one converged outcome, which ASes' route
// selections comply with the textbook BGP decision criteria the paper
// audits in Fig. 9: (i) best relationship — preferring customer routes
// over peer routes over provider routes; and (ii) shortest path — among
// equally preferred routes, choosing a shortest one. ASes following both
// comply with the Gao-Rexford model.
type PolicyAudit struct {
	// Evaluated[i] is true for ASes with a route and at least one
	// alternative to compare against.
	Evaluated []bool
	// BestRel[i] is true when i's selection has the best available
	// relationship class.
	BestRel []bool
	// GaoRexford[i] is true when i's selection has the best class AND a
	// shortest path within that class.
	GaoRexford []bool
}

// FracBestRel returns the fraction of evaluated ASes complying with the
// best-relationship criterion.
func (a *PolicyAudit) FracBestRel() float64 { return a.frac(a.BestRel) }

// FracGaoRexford returns the fraction of evaluated ASes complying with
// both criteria.
func (a *PolicyAudit) FracGaoRexford() float64 { return a.frac(a.GaoRexford) }

func (a *PolicyAudit) frac(flags []bool) float64 {
	n, hit := 0, 0
	for i, ev := range a.Evaluated {
		if !ev {
			continue
		}
		n++
		if flags[i] {
			hit++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hit) / float64(n)
}

// Audit evaluates every AS's converged selection against the offers its
// neighbors export to it in the outcome's final state, classifying
// compliance with the best-relationship and shortest-path criteria. The
// paper performs this audit on observed AS-paths; with the simulator we
// audit the converged state directly, which measures the same property
// without path-inference error.
func (e *Engine) Audit(out *Outcome) *PolicyAudit {
	n := e.g.NumASes()
	audit := &PolicyAudit{
		Evaluated:  make([]bool, n),
		BestRel:    make([]bool, n),
		GaoRexford: make([]bool, n),
	}
	cfg := out.cfg
	scratch := e.getScratch()
	defer e.putScratch(scratch, cfg)
	e.buildCtx(scratch, cfg)
	// The export-class checks below read the classes the outcome's
	// propagation computed and persisted; alias them (read-only — the
	// outcome is immutable, and putScratch drops the alias).
	scratch.sendClass = out.sendCls
	for i := 0; i < n; i++ {
		s := out.sel[i]
		if s.class == classInvalid {
			continue
		}
		scratch.epoch++
		// Gather all valid offers in the converged state, with true
		// (un-pinned) classes.
		type offer struct {
			class int8
			len   int32
		}
		var offers []offer
		for ai := range cfg.Anns {
			if e.origin.Links[cfg.Anns[ai].Link].Provider != i {
				continue
			}
			if row := scratch.ctx.poisoned[ai]; row != nil && row[i] && !e.ignorePoison[i] {
				continue
			}
			offers = append(offers, offer{class: classCustomer, len: int32(cfg.Anns[ai].PathLen())})
		}
		for _, nb := range e.row(i) {
			j := int(nb.idx)
			sn := out.sel[j]
			if sn.class == classInvalid {
				continue
			}
			// Valley-free export filter (offerFrom's precondition): the
			// sender only exports non-customer routes to its customers.
			if scratch.sendClass[j] != classCustomer && nb.rel != topo.RelProvider {
				continue
			}
			cand, ok := e.offerFrom(out.sel, sn, j, nb.rel, i, scratch, e.t1f[i])
			if !ok {
				continue
			}
			offers = append(offers, offer{class: cand.class, len: cand.pathLen})
		}
		if len(offers) < 2 {
			// With at most one offer there is no decision to audit.
			continue
		}
		audit.Evaluated[i] = true
		chosenClass := e.trueClass(i, s)
		bestClass := int8(127)
		for _, o := range offers {
			if o.class < bestClass {
				bestClass = o.class
			}
		}
		if chosenClass != bestClass {
			continue
		}
		audit.BestRel[i] = true
		shortest := int32(1 << 30)
		for _, o := range offers {
			if o.class == bestClass && o.len < shortest {
				shortest = o.len
			}
		}
		if s.pathLen <= shortest {
			audit.GaoRexford[i] = true
		}
	}
	return audit
}
