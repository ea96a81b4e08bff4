package measure

import "slices"

// gapKey packs the pair of responsive hops around a gap into one word,
// the left hop in the high half.
func gapKey(left, right Hop) uint64 { return uint64(left)<<32 | uint64(right) }

// maxGapSeq is the longest responsive sequence the index records between
// a pair: windows span at most four hops end to end, which leaves one to
// three in between.
const maxGapSeq = 3

// gapVal is what has been seen between one pair: the first sequence
// observed (seq[:n], all responsive hops; n == 0 while nothing has
// been), and whether any later observation differed from it. Once set,
// conflict stays set — the pair has at least two distinct sequences and
// repairs nothing.
type gapVal struct {
	seq      [maxGapSeq]Hop
	n        uint8
	conflict bool
}

// gapIndex maps a surrounding pair to the responsive sequences observed
// between its two hops. It holds only the pairs a repair will look up —
// the responsive hops either side of an unresponsive run — so it stays a
// few hundred entries however many windows the traceroutes hold. One map
// with fixed-size keys and values: it is cleared and refilled per
// configuration without allocating.
type gapIndex map[uint64]gapVal

// build refills the index for trs in two passes. The first registers
// the pair around every unresponsive run that has a responsive hop on
// both sides; the second records, for registered pairs only, every run
// of three to five consecutive responsive hops — a pair and the one to
// three hops between it — including those of the traceroutes that will
// later be repaired against it.
func (idx gapIndex) build(trs []Traceroute) {
	clear(idx)
	for _, tr := range trs {
		hops := tr.Hops
		for i := 1; i < len(hops); i++ {
			if hops[i].Responsive() || !hops[i-1].Responsive() {
				continue
			}
			// hops[i] starts an unresponsive run; find its end.
			j := i + 1
			for j < len(hops) && !hops[j].Responsive() {
				j++
			}
			if j < len(hops) {
				idx[gapKey(hops[i-1], hops[j])] = gapVal{}
			}
			i = j
		}
	}
	for _, tr := range trs {
		hops := tr.Hops
		for i, h := range hops {
			if !h.Responsive() {
				continue
			}
			// Extend a window of fully responsive hops after i.
			for j := i + 1; j < len(hops) && j-i <= maxGapSeq+1; j++ {
				if !hops[j].Responsive() {
					break
				}
				if j-i >= 2 { // at least one intermediate hop
					idx.add(gapKey(h, hops[j]), hops[i+1:j])
				}
			}
		}
	}
}

// add records one observation of seq (1..maxGapSeq responsive hops)
// between the pair, if the pair is registered.
func (idx gapIndex) add(key uint64, seq []Hop) {
	v, queried := idx[key]
	switch {
	case !queried || v.conflict:
	case v.n == 0:
		v.n = uint8(copy(v.seq[:], seq))
		idx[key] = v
	case !slices.Equal(v.seq[:v.n], seq):
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
		if h.Responsive() {
			out = append(out, h)
			i++
			continue
		}
		// Start of an unresponsive run [i, j).
		j := i
		for j < len(hops) && !hops[j].Responsive() {
			j++
		}
		// Surrounded by responsive hops?
		if len(out) > 0 && j < len(hops) {
			if v := s.gaps[gapKey(out[len(out)-1], hops[j])]; v.n > 0 && !v.conflict {
				out = append(out, v.seq[:v.n]...)
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
