package measure

import (
	"slices"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

// CatchmentMeasurement is the inferred catchment assignment for one
// deployed configuration.
type CatchmentMeasurement struct {
	// Catchment[i] is the link whose catchment AS i was inferred to be
	// in, or bgp.NoLink when no evidence covered i (i was not observed).
	Catchment []bgp.LinkID
	// MultiCatchment is the number of ASes with conflicting evidence
	// (observed in more than one catchment, §IV-c reports 2.28% on
	// average).
	MultiCatchment int
}

// Unobserved returns an n-AS measurement with no evidence at all: every
// catchment bgp.NoLink, nothing observed. Campaigns record it for
// configurations whose measurement was permanently lost (fault retries
// exhausted); Impute leaves its unknown cells unknown, so localization
// proceeds with partial intersections instead of aborting.
func Unobserved(n int) *CatchmentMeasurement {
	m := &CatchmentMeasurement{Catchment: make([]bgp.LinkID, n)}
	for i := range m.Catchment {
		m.Catchment[i] = bgp.NoLink
	}
	return m
}

// ObservedCount returns the number of ASes with any evidence.
func (m *CatchmentMeasurement) ObservedCount() int {
	n := 0
	for _, l := range m.Catchment {
		if l != bgp.NoLink {
			n++
		}
	}
	return n
}

// InferInput carries the static context the inference pipeline needs.
type InferInput struct {
	Graph  *topo.Graph
	Mapper addr.Mapper
	// OriginASN terminates AS-paths (announcement stuffing starts at its
	// first occurrence).
	OriginASN topo.ASN
	// LinkOf resolves a provider AS (dense index) to its peering link;
	// ok=false if the AS is not a platform provider.
	LinkOf func(provider int) (bgp.LinkID, bool)
}

// vote is one observation of an AS behind a link.
type vote struct {
	as   int32
	link int32
	// bgp marks collector evidence, which outranks traceroutes.
	bgp bool
}

// infer runs the full §IV-b/c pipeline on one observation: repairs
// traceroutes, maps them to AS-level paths, extracts catchment evidence
// from BGP paths (high priority) and traceroutes (low priority), and
// resolves conflicts by priority then majority vote.
func (s *scratch) infer(paths []collectorPath, trs []Traceroute, in InferInput) *CatchmentMeasurement {
	n := in.Graph.NumASes()
	m := Unobserved(n)

	// Evidence is listed first and tallied after: the tally table is
	// dense per AS and per link, and the number of links is only known
	// once every provider has been resolved.
	s.evidence = s.evidence[:0]
	numLinks := 0
	add := func(as int, l bgp.LinkID, fromBGP bool) {
		s.evidence = append(s.evidence, vote{as: int32(as), link: int32(l), bgp: fromBGP})
		if int(l) >= numLinks {
			numLinks = int(l) + 1
		}
	}

	// BGP evidence: every AS on a collector's path up to the provider is
	// routed via that path's link.
	s.seqs.build(paths, in.OriginASN)
	for _, p := range paths {
		cut, link, ok := splitPath(p.path, in.OriginASN, in.Graph, in.LinkOf)
		if !ok {
			continue
		}
		for _, asn := range p.path[:cut] {
			if as, ok := in.Graph.Index(asn); ok {
				add(as, link, true)
			}
		}
	}

	// Traceroute evidence, after the three repair stages.
	s.gaps.build(trs)
	for _, tr := range trs {
		asPath := s.asLevelPath(s.repairOne(tr.Hops), in.Graph, in.Mapper, s.seqs)
		if len(asPath) == 0 {
			continue
		}
		provider := asPath[len(asPath)-1]
		link, ok := in.LinkOf(provider)
		if !ok {
			continue // mapping noise garbled the provider; unattributable
		}
		for _, as := range asPath {
			add(as, link, false)
		}
	}

	// counts holds, per AS, a row of BGP tallies then a row of
	// traceroute tallies, one cell per link.
	row := 2 * numLinks
	if need := n * row; cap(s.counts) < need {
		s.counts = make([]int32, need)
	} else {
		s.counts = s.counts[:need]
		clear(s.counts)
	}
	for _, v := range s.evidence {
		cell := int(v.as)*row + int(v.link)
		if !v.bgp {
			cell += numLinks
		}
		s.counts[cell]++
	}

	// Resolution: BGP beats traceroute; within a type, majority vote
	// with deterministic tie-breaking toward the lowest link id (the
	// scan is ascending and only a strictly larger tally displaces).
	for i := 0; i < n; i++ {
		bv, tv := s.counts[i*row:i*row+numLinks], s.counts[i*row+numLinks:(i+1)*row]
		bestB, bestBN, bestT, bestTN := bgp.NoLink, int32(0), bgp.NoLink, int32(0)
		links := 0
		for l := 0; l < numLinks; l++ {
			if bv[l] > bestBN {
				bestB, bestBN = bgp.LinkID(l), bv[l]
			}
			if tv[l] > bestTN {
				bestT, bestTN = bgp.LinkID(l), tv[l]
			}
			if bv[l] > 0 || tv[l] > 0 {
				links++
			}
		}
		if links == 0 {
			continue
		}
		if bestBN > 0 {
			m.Catchment[i] = bestB
		} else {
			m.Catchment[i] = bestT
		}
		// Conflict accounting across all evidence.
		if links > 1 {
			m.MultiCatchment++
		}
	}
	return m
}

// splitPath cuts an AS-path at the first occurrence of the origin ASN
// and resolves the provider (last topology AS before it) to a link.
// path[:cut] are the ASNs before the origin.
func splitPath(path []topo.ASN, origin topo.ASN, g *topo.Graph, linkOf func(int) (bgp.LinkID, bool)) (cut int, link bgp.LinkID, ok bool) {
	cut = -1
	for k, asn := range path {
		if asn == origin {
			cut = k
			break
		}
	}
	if cut <= 0 {
		return 0, bgp.NoLink, false
	}
	provIdx, ok := g.Index(path[cut-1])
	if !ok {
		return 0, bgp.NoLink, false
	}
	link, ok = linkOf(provIdx)
	if !ok {
		return 0, bgp.NoLink, false
	}
	return cut, link, true
}

// maxASSeq is the longest intermediate AS sequence indexed between a
// pair, for the same reason as maxGapSeq.
const maxASSeq = 3

// asSeqVal is the AS sequence first seen between a pair of ASNs
// (seq[:n]); conflict is set, for good, once a different one shows up.
type asSeqVal struct {
	seq      [maxASSeq]topo.ASN
	n        uint8
	conflict bool
}

// asSeqIndex indexes, for pairs of ASNs seen on BGP paths, the unique
// intermediate AS sequence between them (repair stage 3 of §IV-b).
type asSeqIndex map[[2]topo.ASN]asSeqVal

// build refills the index from the collector paths. What it holds does
// not depend on their order: a pair's sequence is kept only while every
// path agrees on it.
func (idx asSeqIndex) build(paths []collectorPath, origin topo.ASN) {
	clear(idx)
	for _, cp := range paths {
		// Only the part before announcement stuffing is a real AS chain.
		end := len(cp.path)
		for k, asn := range cp.path {
			if asn == origin {
				end = k
				break
			}
		}
		p := cp.path[:end]
		for i := 0; i < len(p); i++ {
			for j := i + 2; j < len(p) && j-i <= maxASSeq+1; j++ {
				key := [2]topo.ASN{p[i], p[j]}
				seq := p[i+1 : j]
				v, seen := idx[key]
				if !seen {
					v.n = uint8(copy(v.seq[:], seq))
					idx[key] = v
					continue
				}
				if !v.conflict && !slices.Equal(v.seq[:v.n], seq) {
					v.conflict = true
					idx[key] = v
				}
			}
		}
	}
}

// lookup returns the unique sequence between a and b (v.seq[:v.n]);
// ok=false when the pair was never seen or conflicts.
func (idx asSeqIndex) lookup(a, b topo.ASN) (v asSeqVal, ok bool) {
	v, ok = idx[[2]topo.ASN{a, b}]
	return v, ok && !v.conflict
}

// asLevelPath maps a traceroute's hops to an AS-level path of dense
// indices, applying repair stages 2 and 3 of §IV-b: unmapped hops
// surrounded by a single AS collapse into it; unmapped hops between two
// different ASes are bridged by the unique BGP AS sequence when one
// exists; remaining unmapped hops are dropped. Consecutive duplicate
// ASes collapse. The result is valid until the next call.
func (s *scratch) asLevelPath(hops []Hop, g *topo.Graph, mapper addr.Mapper, seqIdx asSeqIndex) []int {
	// First map every hop: >=0 AS index, -1 unmapped, -2 destination.
	mapped := s.mapped[:0]
	for _, h := range hops {
		switch {
		case !h.Responsive():
			mapped = append(mapped, -1)
		case h == targetHop:
			mapped = append(mapped, -2)
		default:
			if i, ok := mapper.Map(uint32(h)); ok {
				mapped = append(mapped, i)
			} else {
				mapped = append(mapped, -1)
			}
		}
	}
	s.mapped = mapped
	// Collapse consecutive duplicates, keeping unmapped markers.
	seq := s.collapsed[:0]
	for _, v := range mapped {
		if v == -2 {
			break // destination reached; stuffing after is impossible
		}
		if len(seq) > 0 && seq[len(seq)-1] == v && v >= 0 {
			continue
		}
		// Merge consecutive unmapped markers too.
		if len(seq) > 0 && seq[len(seq)-1] == -1 && v == -1 {
			continue
		}
		seq = append(seq, v)
	}
	s.collapsed = seq
	// Stage 2 + 3: resolve unmapped runs using surrounding ASes.
	out := s.asPath[:0]
	for i := 0; i < len(seq); i++ {
		v := seq[i]
		if v >= 0 {
			if len(out) == 0 || out[len(out)-1] != v {
				out = append(out, v)
			}
			continue
		}
		prev := -1
		if len(out) > 0 {
			prev = out[len(out)-1]
		}
		next := -1
		if i+1 < len(seq) && seq[i+1] >= 0 {
			next = seq[i+1]
		}
		switch {
		case prev >= 0 && prev == next:
			// Same AS on both sides: the gap is inside it; drop marker.
		case prev >= 0 && next >= 0:
			// Different ASes: bridge via unique BGP sequence if known.
			if bridge, ok := seqIdx.lookup(g.ASN(prev), g.ASN(next)); ok {
				for _, asn := range bridge.seq[:bridge.n] {
					if bi, ok := g.Index(asn); ok && (len(out) == 0 || out[len(out)-1] != bi) {
						out = append(out, bi)
					}
				}
			}
			// Otherwise: drop the hop (ignored on the AS-level path).
		default:
			// Gap at the edges: drop.
		}
	}
	s.asPath = out
	return out
}
