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

// gapFilterLog is log2 of the bits in each of the gap index's two
// filters. A configuration registers a hundred to a few hundred pairs
// (114, from 101 left hops, on the benchmark's 600-AS world), so at 2^15
// bits a hop that starts no registered pair passes the left filter about
// once in three hundred.
const gapFilterLog = 15

// gapFilter is a one-hash bit filter over gapFilterLog-bit slots: a
// clear bit proves a value was never set, a set bit proves nothing.
type gapFilter [1 << gapFilterLog / 64]uint64

func (f *gapFilter) set(slot uint32)      { f[slot/64] |= 1 << (slot % 64) }
func (f *gapFilter) has(slot uint32) bool { return f[slot/64]&(1<<(slot%64)) != 0 }

// fibMul is 2^64 divided by the golden ratio: a word times fibMul has
// top bits that depend on every bit of the word (Fibonacci hashing).
const fibMul = 0x9e3779b97f4a7c15

// filterSlot spreads a word over the filter's slots.
func filterSlot(x uint64) uint32 { return uint32(x * fibMul >> (64 - gapFilterLog)) }

// gapIndex maps a surrounding pair to the responsive sequences observed
// between its two hops. It holds only the pairs a repair will look up —
// the responsive hops either side of an unresponsive run — so it stays a
// few hundred entries however many windows the traceroutes hold. The
// pairs live in an open-addressing table (keys, vals; a zero key is an
// empty slot, and no pair of responsive hops packs to zero) sized from
// the registered pairs and grown, never shrunk, so a warm pass refills
// it without allocating. In front of it sit two filters: pairs has a bit
// for every registered pair and lefts one for every registered pair's
// left hop, so the windows of a hop no pair starts from are never built
// and almost every other miss is settled without probing the table.
type gapIndex struct {
	keys []uint64
	vals []gapVal
	// shift turns a key's hash into its home slot: len(keys) is
	// 1<<(64-shift).
	shift uint8
	// registered lists pass 1's pairs, repeats included.
	registered   []uint64
	pairs, lefts gapFilter
}

// build refills the index for trs in two passes. The first registers
// the pair around every unresponsive run that has a responsive hop on
// both sides; the second records, for registered pairs only, every run
// of three to five consecutive responsive hops — a pair and the one to
// three hops between it — including those of the traceroutes that will
// later be repaired against it. The filters decide nothing the table
// would not: a hop or pair they pass still goes to the table.
func (idx *gapIndex) build(trs []Traceroute) {
	clear(idx.pairs[:])
	clear(idx.lefts[:])
	idx.registered = idx.registered[:0]
	for k := range trs {
		hops := trs[k].Hops
		// Each unresponsive run hops[i:j] with a responsive hop on
		// either side registers that pair.
		for i := 1; i < len(hops); i++ {
			if hops[i].Responsive() || !hops[i-1].Responsive() {
				continue
			}
			j := i + 1
			for j < len(hops) && !hops[j].Responsive() {
				j++
			}
			if j < len(hops) {
				key := gapKey(hops[i-1], hops[j])
				idx.registered = append(idx.registered, key)
				idx.pairs.set(filterSlot(key))
				idx.lefts.set(filterSlot(uint64(hops[i-1])))
			}
			i = j
		}
	}
	idx.reset(len(idx.registered))
	for _, key := range idx.registered {
		idx.keys[idx.slot(key)] = key
	}
	for k := range trs {
		hops := trs[k].Hops
		for i, h := range hops {
			if !h.Responsive() || !idx.lefts.has(filterSlot(uint64(h))) {
				continue
			}
			// Extend a window of fully responsive hops after i.
			for j := i + 1; j < len(hops) && j-i <= maxGapSeq+1; j++ {
				if !hops[j].Responsive() {
					break
				}
				if key := gapKey(h, hops[j]); j-i >= 2 && idx.pairs.has(filterSlot(key)) {
					idx.add(key, hops[i+1:j])
				}
			}
		}
	}
}

// reset empties the table and sizes it for up to pairs keys at most
// half full.
func (idx *gapIndex) reset(pairs int) {
	size, shift := 64, uint8(64-6)
	for size < 2*pairs {
		size, shift = 2*size, shift-1
	}
	if cap(idx.keys) < size {
		c := max(size, 2*cap(idx.keys))
		idx.keys, idx.vals = make([]uint64, c), make([]gapVal, c)
	}
	idx.keys, idx.vals, idx.shift = idx.keys[:size], idx.vals[:size], shift
	clear(idx.keys)
	clear(idx.vals)
}

// slot returns the table slot that holds key, or the empty slot where it
// would go.
func (idx *gapIndex) slot(key uint64) int {
	mask := len(idx.keys) - 1
	k := int(key * fibMul >> idx.shift)
	for idx.keys[k] != 0 && idx.keys[k] != key {
		k = (k + 1) & mask
	}
	return k
}

// lookup returns what has been seen between the pair; registered is
// false when no gap queries it. The index must have been built.
func (idx *gapIndex) lookup(key uint64) (v gapVal, registered bool) {
	k := idx.slot(key)
	return idx.vals[k], idx.keys[k] != 0
}

// add records one observation of seq (1..maxGapSeq responsive hops)
// between the pair, if the pair is registered.
func (idx *gapIndex) add(key uint64, seq []Hop) {
	k := idx.slot(key)
	v := &idx.vals[k]
	switch {
	case idx.keys[k] == 0 || v.conflict:
	case v.n == 0:
		v.n = uint8(copy(v.seq[:], seq))
	case !slices.Equal(v.seq[:v.n], seq):
		v.conflict = true
	}
}

// fill returns the repair of the unresponsive run hops[i:j]: its pair's
// unique sequence (v.seq[:v.n]), ok=false when the run is at an edge of
// the traceroute or its pair saw no sequence or more than one.
func (idx *gapIndex) fill(hops []Hop, i, j int) (v gapVal, ok bool) {
	if i == 0 || j == len(hops) {
		return gapVal{}, false
	}
	v, _ = idx.lookup(gapKey(hops[i-1], hops[j]))
	return v, v.n > 0 && !v.conflict
}
