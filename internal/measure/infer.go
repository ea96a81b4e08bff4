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
	// LinkOf[i] is the peering link whose provider is AS i (dense
	// index), bgp.NoLink when AS i provides none; one entry per AS
	// (peering.Platform.ProviderLinks).
	LinkOf []bgp.LinkID
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
	// Evidence is listed first and tallied after: a tally row has a cell
	// per link, and the number of links is only known once every
	// provider has been resolved.
	ev, numLinks := s.evidence[:0], 0

	// BGP evidence: every AS on a collector's path up to the provider is
	// routed via that path's link.
	s.seqs.build(paths, in.OriginASN)
	for _, p := range paths {
		cut, link, ok := splitPath(p.path, in.OriginASN, in.Graph, in.LinkOf)
		if !ok {
			continue
		}
		numLinks = max(numLinks, int(link)+1)
		for _, asn := range p.path[:cut] {
			if as, ok := in.Graph.Index(asn); ok {
				ev = append(ev, vote{as: int32(as), link: int32(link), bgp: true})
			}
		}
	}

	// Traceroute evidence, repaired and mapped in one pass each.
	s.gaps.build(trs)
	for _, tr := range trs {
		asPath := s.asLevelPath(tr.Hops, in.Graph, in.Mapper, s.seqs)
		if len(asPath) == 0 {
			continue
		}
		link := in.LinkOf[asPath[len(asPath)-1]]
		if link == bgp.NoLink {
			continue // mapping noise garbled the provider; unattributable
		}
		numLinks = max(numLinks, int(link)+1)
		for _, as := range asPath {
			ev = append(ev, vote{as: int32(as), link: int32(link)})
		}
	}
	s.evidence = ev
	return s.resolve(in.Graph.NumASes(), numLinks)
}

// resolve tallies s.evidence, whose links are all below numLinks, and
// returns the n-AS measurement it supports. Its cost follows the
// evidence, not the world: an AS gets a state word on its first vote
// and a tally row only once its votes name a second link.
//
// Resolution: BGP beats traceroute; within a type, majority vote with
// deterministic tie-breaking toward the lowest link id. An AS whose
// votes all name one link resolves to it whatever their types; only a
// conflicting AS needs its tallies.
func (s *scratch) resolve(n, numLinks int) *CatchmentMeasurement {
	m := Unobserved(n)
	if len(s.state) < n {
		s.state = make([]int32, max(n, 2*len(s.state)))
	}
	// state[as] is 0 before as's first vote, 1+link while every vote
	// names that link, and -1-row once a second link gives it a row.
	s.touched = s.touched[:0]
	rows := 0
	for _, v := range s.evidence {
		switch st := s.state[v.as]; {
		case st == 0:
			s.touched = append(s.touched, v.as)
			s.state[v.as] = v.link + 1
		case st > 0 && st != v.link+1:
			s.state[v.as] = int32(-1 - rows)
			rows++
		}
	}
	// A row holds the AS's BGP tallies then its traceroute tallies, one
	// cell per link: a conflicting AS's votes, all of them, from the top.
	stride := 2 * numLinks
	if need := rows * stride; cap(s.counts) < need {
		s.counts = make([]int32, max(need, 2*cap(s.counts)))
	}
	s.counts = s.counts[:rows*stride]
	clear(s.counts)
	if rows > 0 {
		for _, v := range s.evidence {
			if st := s.state[v.as]; st < 0 {
				cell := int(-1-st)*stride + int(v.link)
				if !v.bgp {
					cell += numLinks
				}
				s.counts[cell]++
			}
		}
	}
	for _, as := range s.touched {
		st := s.state[as]
		s.state[as] = 0 // every entry is zero again once the pass ends
		if st > 0 {
			m.Catchment[as] = bgp.LinkID(st - 1)
			continue
		}
		// The scan is ascending and only a strictly larger tally
		// displaces, so ties go to the lowest link id.
		row := s.counts[int(-1-st)*stride:][:stride]
		bv, tv := row[:numLinks], row[numLinks:]
		bestB, bestBN, bestT, bestTN := bgp.NoLink, int32(0), bgp.NoLink, int32(0)
		for l := 0; l < numLinks; l++ {
			if bv[l] > bestBN {
				bestB, bestBN = bgp.LinkID(l), bv[l]
			}
			if tv[l] > bestTN {
				bestT, bestTN = bgp.LinkID(l), tv[l]
			}
		}
		if bestBN > 0 {
			m.Catchment[as] = bestB
		} else {
			m.Catchment[as] = bestT
		}
		// Conflict accounting across all evidence: the AS was observed
		// in more than one catchment.
		m.MultiCatchment++
	}
	return m
}

// splitPath cuts an AS-path at the first occurrence of the origin ASN
// and resolves the provider (last topology AS before it) to a link.
// path[:cut] are the ASNs before the origin.
func splitPath(path []topo.ASN, origin topo.ASN, g *topo.Graph, linkOf []bgp.LinkID) (cut int, link bgp.LinkID, ok bool) {
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
	if !ok || linkOf[provIdx] == bgp.NoLink {
		return 0, bgp.NoLink, false
	}
	return cut, linkOf[provIdx], true
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
// intermediate AS sequence between them (repair stage 3 of §IV-b),
// keyed by seqKey.
type asSeqIndex map[uint64]asSeqVal

// seqKey packs a pair of ASNs into one word, the first in the high half.
func seqKey(a, b topo.ASN) uint64 { return uint64(a)<<32 | uint64(b) }

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
				key := seqKey(p[i], p[j])
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
	v, ok = idx[seqKey(a, b)]
	return v, ok && !v.conflict
}

// asLevelPath repairs a traceroute's hops and maps them to an AS-level
// path of dense indices in one pass, emitting each hop as the repair
// produces it (stage 1 of §IV-b: an unresponsive run between two
// responsive hops becomes its pair's unique sequence when the gap index
// has one) and applying stages 2 and 3 as it goes: unmapped hops
// surrounded by a single AS collapse into it; unmapped hops between two
// different ASes are bridged by the unique BGP AS sequence when one
// exists; remaining unmapped hops are dropped. Consecutive duplicate
// ASes collapse, and the destination ends the path. The result is valid
// until the next call.
func (s *scratch) asLevelPath(hops []Hop, g *topo.Graph, mapper addr.Mapper, seqIdx asSeqIndex) []int {
	// gap is set while unmapped hops have followed the last AS on out.
	out, gap := s.asPath[:0], false
	for i := 0; i < len(hops); i++ {
		h := hops[i]
		if !h.Responsive() {
			// An unresponsive run hops[i:j]: its repair, or one unmapped
			// marker.
			j := i + 1
			for j < len(hops) && !hops[j].Responsive() {
				j++
			}
			v, ok := s.gaps.fill(hops, i, j)
			i = j - 1
			if !ok {
				gap = true
				continue
			}
			var end bool
			if out, gap, end = appendHops(out, gap, v.seq[:v.n], g, mapper, seqIdx); end {
				break
			}
			continue
		}
		if h == targetHop {
			break // destination reached; stuffing after is impossible
		}
		as, ok := mapper.Map(uint32(h))
		if !ok {
			gap = true
			continue
		}
		if gap {
			gap = false
			out = bridge(out, as, g, seqIdx)
		}
		if len(out) == 0 || out[len(out)-1] != as {
			out = append(out, as)
		}
	}
	s.asPath = out
	return out
}

// appendHops adds a repaired run's hops to the AS-level path out, step
// for step as asLevelPath adds a traceroute's own, and reports end once
// the destination is reached. asLevelPath writes the step out instead of
// calling appendHops on each responsive stretch: a second walk and a
// call per stretch made the pass about 40 % slower on the benchmark's
// traceroutes.
func appendHops(out []int, gap bool, hops []Hop, g *topo.Graph, mapper addr.Mapper, seqIdx asSeqIndex) (_ []int, _ bool, end bool) {
	for _, h := range hops {
		if h == targetHop {
			return out, gap, true
		}
		as, ok := mapper.Map(uint32(h))
		if !ok {
			gap = true
			continue
		}
		if gap {
			gap = false
			out = bridge(out, as, g, seqIdx)
		}
		if len(out) == 0 || out[len(out)-1] != as {
			out = append(out, as)
		}
	}
	return out, gap, false
}

// bridge resolves the unmapped gap between the last AS on out and next.
// The same AS on both sides means the gap is inside it; different ASes
// are bridged via their unique BGP sequence if one is known; otherwise,
// and at the edges, the gap is dropped.
func bridge(out []int, next int, g *topo.Graph, seqIdx asSeqIndex) []int {
	if len(out) == 0 || out[len(out)-1] == next {
		return out
	}
	v, ok := seqIdx.lookup(g.ASN(out[len(out)-1]), g.ASN(next))
	if !ok {
		return out
	}
	for _, asn := range v.seq[:v.n] {
		if bi, ok := g.Index(asn); ok && out[len(out)-1] != bi {
			out = append(out, bi)
		}
	}
	return out
}
