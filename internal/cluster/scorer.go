package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"spooftrack/internal/bgp"
)

// table is the flat (old cluster, label) → refined cluster id map behind
// Refine and NumClustersAfter: labels are small link ids, so a
// composite key is cluster*width + labelSlot(label) and the map is a
// slice. Every cell is -1 between uses; a use records the keys it sets
// and reset puts only those back, so a warm use costs what it touches,
// not the size of the table (DESIGN.md §5.11).
type table struct {
	cells   []int32
	touched []int32
}

// freeList lends warm scratch to whoever asks and takes it back, and
// unlike a sync.Pool keeps it across collections and across Ps. A pool
// empties on every second collection and parks each Put in a per-P slot
// no other P can take from, so whether a call found its scratch warm or
// allocated it afresh (tens of KB for a greedy step's scorer) followed the
// scheduler and the collector, not the work, and one benchmark op
// allocated up to half again as much as the next. The list holds as many
// items as were ever borrowed at once. A use that panics does not return
// its item, so an item on the list is always clean.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return new(T)
	}
	x := f.items[n-1]
	f.items[n-1] = nil
	f.items = f.items[:n-1]
	return x
}

func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	f.items = append(f.items, x)
	f.mu.Unlock()
}

// tables lends Refine and NumClustersAfter their table; scorers lends
// BorrowScorer its Scorer.
var (
	tables  freeList[table]
	scorers freeList[Scorer]
)

func borrowTable(cells int) *table {
	t := tables.get()
	t.grow(cells)
	return t
}

func (t *table) release() {
	t.reset()
	tables.put(t)
}

// grow makes room for keys below cells. The old cells are all -1, so
// growing is a fresh table, at least doubled so that a partition gaining
// a few clusters a round does not reallocate every round.
func (t *table) grow(cells int) {
	if cells <= len(t.cells) {
		return
	}
	if cells > math.MaxInt32 {
		panic(fmt.Sprintf("cluster: %d (cluster, label) keys do not fit an int32", cells))
	}
	t.cells = make([]int32, max(cells, 2*len(t.cells)))
	for i := range t.cells {
		t.cells[i] = -1
	}
}

// id returns the refined id of key. An unseen key takes next, and fresh
// reports that it did.
func (t *table) id(key, next int32) (id int32, fresh bool) {
	if id = t.cells[key]; id >= 0 {
		return id, false
	}
	t.cells[key] = next
	t.touched = append(t.touched, key)
	return next, true
}

func (t *table) reset() {
	for _, key := range t.touched {
		t.cells[key] = -1
	}
	t.touched = t.touched[:0]
}

// slots is the number of label slots labelSlot can return for a LinkID:
// NoLink and every link up to bgp.MaxLinks.
const slots = bgp.MaxLinks + 2

// group is one volume-bearing cluster of the partition a Scorer was
// Reset to.
type group struct {
	start, end int32 // its members are walk positions start..end-1
	ladder     int32 // its ladder starts at ladders[ladder]; -1 without one
	vols       int32 // without a ladder, its members' volumes start at vols[vols]
}

// term is one refined cluster's contribution to a score.
type term struct {
	vol  float64 // summed over its members in ascending order
	size int32
}

// Scorer computes the volume-weighted mean cluster size that refining a
// partition by a configuration's labels would produce,
//
//	refined := p.RefinedCopy(labels)
//	sum_k volume[k] * size(refined cluster of k) / sum_k volume[k]
//
// for many configurations against one partition and one volume vector —
// the greedy volume scheduler's inner loop. Reset fixes the partition and
// the volumes, Score runs one configuration. Neither materializes the
// refined copy, and a warm Scorer allocates nothing.
//
// Reset lists the clusters that carry volume — the groups — and sums
// each one's term. A refined cluster without volume adds +0.0 to both
// sums, so Score visits only the groups: one the configuration leaves
// whole keeps its term, one it splits is counted per label, and a
// part's volume is read off the group's ladder when every member with
// volume carries the same share. The terms are added in ascending order
// of each refined cluster's lowest member, which is the first-occurrence
// order Refine numbers them in, and each sums the same addends in the
// same order as a pass over every source: the result is bit-equal to
// that pass, not merely close (DESIGN.md §5.11). The zero value is
// ready to use; a Scorer is not safe for concurrent use.
type Scorer struct {
	n int // sources of the partition Reset saw
	// groups are in ascending order of lowest member; multi are the
	// indices of those with two or more members, as a singleton's term
	// never changes.
	groups []group
	multi  []int32
	// The walk — the members of every group, group by group, each
	// group's members ascending: source position, rank in the ascending
	// walk, and 1 when the volume is not zero.
	k    []int32
	rank []int32
	has  []uint8
	// ladders holds each equal-share group's ladder: entry m is m copies
	// of the share added one at a time from +0.0. vols holds the member
	// volumes of the groups without one.
	ladders, vols []float64
	of            []int32 // per cluster: its group, -1 without volume
	// terms starts with every group's whole term, in group order, and a
	// Score appends the parts of the groups it splits. termAt maps the
	// walk rank of a refined cluster's lowest member to its term: Reset
	// points it at the whole terms, and a Score that splits a group
	// points it at the parts and then back. base marks the ranks of the
	// groups' lowest members, set the terms of the current Score.
	terms     []term
	termAt    []int32
	base, set []uint64
	dirty     []int32 // groups the current Score split
	// Per label slot, while one group splits: its members, plus 1<<32
	// for each with volume, and the rank of its lowest member, then the
	// index of its term.
	parts [slots]int64
	low   [slots]int32
}

// BorrowScorer lends a warm Scorer from a process-wide free list, so the
// greedy step's callers — the pipeline, the shard controller and a
// provenance replay, each through a sched.Loop — share its scratch
// without any of them carrying a field for it. Hand it back with Release.
func BorrowScorer() *Scorer { return scorers.get() }

// Release returns a scorer from BorrowScorer to the free list; it must
// not be used afterwards.
func (s *Scorer) Release() { scorers.put(s) }

// Reset points the scorer at partition p and per-source volumes (a
// volume slice shorter than the source list weighs the missing tail at
// zero). It reads both now and keeps neither.
func (s *Scorer) Reset(p *Partition, volume []float64) {
	s.n = len(p.assign)
	volume = volume[:min(len(volume), s.n)]
	s.of = resize(s.of, p.num)
	for c := range s.of {
		s.of[c] = -1
	}
	for k, v := range volume {
		if v != 0 {
			s.of[p.assign[k]] = -2 // carries volume, group not yet numbered
		}
	}
	// Number the groups by lowest member and count their members in end.
	groups := s.groups[:0]
	walk := int32(0)
	for _, c := range p.assign {
		g := s.of[c]
		if g == -1 {
			continue
		}
		if g == -2 {
			g = int32(len(groups))
			s.of[c] = g
			groups = append(groups, group{})
		}
		groups[g].end++
		walk++
	}
	start := int32(0)
	for g := range groups {
		size := groups[g].end
		groups[g].start, groups[g].end = start, start
		start += size
	}
	s.k, s.rank, s.has = resize(s.k, int(walk)), resize(s.rank, int(walk)), resize(s.has, int(walk))
	r := int32(0)
	for k, c := range p.assign {
		if g := s.of[c]; g >= 0 {
			i := groups[g].end
			groups[g].end++
			s.k[i], s.rank[i], s.has[i] = int32(k), r, 0
			if k < len(volume) && volume[k] != 0 {
				s.has[i] = 1
			}
			r++
		}
	}
	s.termAt = resize(s.termAt, int(walk))
	s.base, s.set = resize(s.base, int(walk+63)/64), resize(s.set, int(walk+63)/64)
	clear(s.base)
	// A ladder has an entry per member with volume plus one, so this
	// bound holds them all without the slack of growing by append.
	s.ladders, s.vols = resize(s.ladders, int(walk)+len(groups))[:0], s.vols[:0]
	s.terms, s.multi = s.terms[:0], s.multi[:0]
	for i := range groups {
		g := &groups[i]
		r := s.rank[g.start]
		s.termAt[r] = int32(i)
		s.terms = append(s.terms, term{s.sumGroup(g, volume), g.end - g.start})
		s.base[r/64] |= 1 << (r % 64)
		if g.end-g.start > 1 {
			s.multi = append(s.multi, int32(i))
		}
	}
	s.groups = groups
}

// sumGroup returns g's whole-cluster volume. When every member with
// volume carries the same share it appends g's ladder, else its
// members' volumes, and points g at what it appended.
func (s *Scorer) sumGroup(g *group, volume []float64) (vol float64) {
	members := s.k[g.start:g.end]
	share, equal, with := 0.0, true, 0
	for i, k := range members {
		if s.has[g.start+int32(i)] == 0 {
			continue
		}
		v := volume[k]
		vol += v
		if with == 0 {
			share = v
		}
		equal = equal && v == share
		with++
	}
	g.ladder, g.vols = -1, -1
	if !equal {
		g.vols = int32(len(s.vols))
		for i, k := range members {
			v := 0.0
			if s.has[g.start+int32(i)] != 0 {
				v = volume[k]
			}
			s.vols = append(s.vols, v)
		}
		return vol
	}
	if g.end-g.start > 1 {
		g.ladder = int32(len(s.ladders))
		step := 0.0
		s.ladders = append(s.ladders, step)
		for m := 0; m < with; m++ {
			step += share
			s.ladders = append(s.ladders, step)
		}
	}
	return vol
}

// resize returns a slice of length n, reusing x's array when it can.
// The contents are not cleared.
func resize[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	return x[:n]
}

// Score returns the volume-weighted mean cluster size after refining by
// labels, 0 when no volume is observed.
func (s *Scorer) Score(labels []bgp.LinkID) float64 {
	if len(labels) != s.n {
		panic(fmt.Sprintf("cluster: %d labels for %d sources", len(labels), s.n))
	}
	copy(s.set, s.base)
	s.terms = s.terms[:len(s.groups)]
	s.dirty = s.dirty[:0]
	for _, i := range s.multi {
		if g := s.groups[i]; !s.whole(g, labels) {
			s.split(g, labels)
			s.dirty = append(s.dirty, i)
		}
	}
	// Fold the terms into the volume-weighted mean in ascending order of
	// lowest member.
	total, acc := 0.0, 0.0
	for w, word := range s.set {
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			t := s.terms[s.termAt[r]]
			total += t.vol
			acc += t.vol * float64(t.size)
		}
	}
	for _, i := range s.dirty {
		s.termAt[s.rank[s.groups[i].start]] = i
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// whole reports whether labels leave group g in one piece.
func (s *Scorer) whole(g group, labels []bgp.LinkID) bool {
	members := s.k[g.start:g.end]
	first := labels[members[0]]
	for _, k := range members[1:] {
		if l := labels[k]; l != first && labelSlot(l) != labelSlot(first) {
			return false
		}
	}
	return true
}

// split appends the term of every part labels cut group g into, points
// termAt at it and marks it set.
func (s *Scorer) split(g group, labels []bgp.LinkID) {
	members := s.k[g.start:g.end]
	has, rank := s.has[g.start:g.end], s.rank[g.start:g.end]
	parts, low := &s.parts, &s.low
	// Walk the members backwards, so the last rank written for a slot is
	// its lowest. mask has bit sl%64 of every slot in use.
	var mask uint64
	for i := len(members) - 1; i >= 0; i-- {
		sl := uint32(labelSlot(labels[members[i]]))
		mask |= 1 << (sl % 64)
		parts[sl] += 1 | int64(has[i])<<32
		low[sl] = rank[i]
	}
	for ; mask != 0; mask &= mask - 1 {
		for sl := bits.TrailingZeros64(mask); sl < slots; sl += 64 {
			if parts[sl] == 0 {
				continue
			}
			t := term{size: int32(parts[sl])}
			if g.ladder >= 0 {
				t.vol = s.ladders[g.ladder+int32(parts[sl]>>32)]
			}
			r := low[sl]
			low[sl] = int32(len(s.terms))
			s.termAt[r] = low[sl]
			s.terms = append(s.terms, t)
			s.set[r/64] |= 1 << (r % 64)
			parts[sl] = 0
		}
	}
	if g.ladder < 0 {
		// Without a ladder each part adds its members' volumes one by
		// one, in ascending order.
		vols := s.vols[g.vols : g.vols+int32(len(members))]
		for i, k := range members {
			s.terms[low[labelSlot(labels[k])]].vol += vols[i]
		}
	}
}
