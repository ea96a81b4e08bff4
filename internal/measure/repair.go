package measure

import (
	"net/netip"
	"slices"
)

// RepairUnresponsive implements the first repair stage of §IV-b: for each
// run of unresponsive hops surrounded by responsive hops (a ... b), look
// across all traceroutes for responsive hop sequences observed between a
// and b; if exactly one distinct sequence exists, substitute it. Returns
// repaired copies; inputs are not modified.
func RepairUnresponsive(trs []Traceroute) []Traceroute {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.gaps.build(trs)
	out := make([]Traceroute, len(trs))
	for i, tr := range trs {
		out[i] = tr
		out[i].Hops = append([]Hop(nil), s.repairOne(tr.Hops)...)
	}
	return out
}

// gapKey identifies a pair of responsive hop addresses that surround a
// gap.
type gapKey struct{ a, b netip.Addr }

// maxGapSeq is the longest responsive sequence the index records between
// a pair: windows span at most four hops end to end, which leaves one to
// three in between.
const maxGapSeq = 3

// gapVal is what has been seen between one pair: the first sequence
// observed (seq[:n], all responsive hops, so addresses suffice), and
// whether any later observation differed from it. Once set, conflict
// stays set — the pair has at least two distinct sequences and repairs
// nothing.
type gapVal struct {
	seq      [maxGapSeq]netip.Addr
	n        uint8
	conflict bool
}

// gapIndex maps a surrounding pair to the responsive sequences observed
// between its two addresses. One map with fixed-size values: it is
// cleared and refilled per configuration without allocating.
type gapIndex map[gapKey]gapVal

// build refills the index from every run of three to five consecutive
// responsive hops in trs — a pair and the one to three hops between it —
// including the traceroutes that will later be repaired against it.
func (idx gapIndex) build(trs []Traceroute) {
	clear(idx)
	for _, tr := range trs {
		hops := tr.Hops
		for i := 0; i < len(hops); i++ {
			if !hops[i].Responsive {
				continue
			}
			// Extend a window of fully responsive hops after i.
			for j := i + 1; j < len(hops) && j-i <= maxGapSeq+1; j++ {
				if !hops[j].Responsive {
					break
				}
				if j-i >= 2 { // at least one intermediate hop
					idx.add(gapKey{hops[i].Addr, hops[j].Addr}, hops[i+1:j])
				}
			}
		}
	}
}

// add records one observation of seq (1..maxGapSeq responsive hops)
// between the pair.
func (idx gapIndex) add(key gapKey, seq []Hop) {
	v, seen := idx[key]
	if !seen {
		v.n = uint8(len(seq))
		for k, h := range seq {
			v.seq[k] = h.Addr
		}
		idx[key] = v
		return
	}
	if !v.conflict && !slices.EqualFunc(v.seq[:v.n], seq, func(a netip.Addr, h Hop) bool { return a == h.Addr }) {
		v.conflict = true
		idx[key] = v
	}
}

// repairOne returns hops with every repairable unresponsive run replaced
// by its pair's unique sequence. The result lives in the scratch and is
// valid until the next call.
func (s *scratch) repairOne(hops []Hop) []Hop {
	out := s.repaired[:0]
	i := 0
	for i < len(hops) {
		h := hops[i]
		if h.Responsive {
			out = append(out, h)
			i++
			continue
		}
		// Start of an unresponsive run [i, j).
		j := i
		for j < len(hops) && !hops[j].Responsive {
			j++
		}
		// Surrounded by responsive hops?
		if len(out) > 0 && j < len(hops) {
			key := gapKey{out[len(out)-1].Addr, hops[j].Addr}
			if v, ok := s.gaps[key]; ok && !v.conflict {
				for _, a := range v.seq[:v.n] {
					out = append(out, Hop{Addr: a, Responsive: true})
				}
				i = j
				continue
			}
		}
		// No unique repair: keep the unresponsive hops as-is.
		out = append(out, hops[i:j]...)
		i = j
	}
	s.repaired = out
	return out
}
