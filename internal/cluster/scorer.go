package cluster

import (
	"fmt"
	"math"
	"sync"

	"spooftrack/internal/bgp"
)

// table is the flat (old cluster, label) → refined cluster id map behind
// Refine, NumClustersAfter and Scorer.Score: labels are small link ids,
// so a composite key is cluster*width + labelSlot(label) and the map is
// a slice. Every cell is -1 between uses; a use records the keys it sets
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
// allocated it afresh (~300 KB for a greedy step's scorer) followed the
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

// scoreWidth is the table width a Scorer uses: a column for every label
// a LinkID can hold, so a score needs no scan for the widest label and
// no label can index outside its cluster's row.
const scoreWidth = bgp.MaxLinks + 2

// walkEntry is one source a score visits, with what the pass needs of it
// packed beside it.
type walkEntry struct {
	k    int32   // source position
	base int32   // first table key of the source's cluster
	vol  float64 // volume[k]; 0 past the end of volume
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
// A refined cluster without volume adds +0.0 to both sums, so Score
// visits only the members of clusters that carry volume, in ascending
// source order: the surviving refined clusters are numbered in the same
// relative order and each sum sees the same addends in the same order as
// a pass over every source, which makes the result bit-equal to that
// pass, not merely close. The zero value is ready to use; a Scorer is
// not safe for concurrent use.
type Scorer struct {
	n    int         // sources of the partition Reset saw
	walk []walkEntry // members of volume-bearing clusters, ascending k
	row  []int32     // per cluster: its row in the table, -1 without volume
	t    table
	// sizes and vols accumulate per refined cluster during a Score.
	sizes []int32
	vols  []float64
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
	if cap(s.row) < p.num {
		s.row = make([]int32, p.num)
	}
	s.row = s.row[:p.num]
	for c := range s.row {
		s.row[c] = -1
	}
	rows := 0
	for k, v := range volume[:min(len(volume), s.n)] {
		if c := p.assign[k]; v != 0 && s.row[c] < 0 {
			s.row[c] = int32(rows)
			rows++
		}
	}
	s.t.grow(rows * scoreWidth)
	s.walk = s.walk[:0]
	for k, c := range p.assign {
		if row := s.row[c]; row >= 0 {
			w := walkEntry{k: int32(k), base: row * scoreWidth}
			if k < len(volume) {
				w.vol = volume[k]
			}
			s.walk = append(s.walk, w)
		}
	}
}

// Score returns the volume-weighted mean cluster size after refining by
// labels, 0 when no volume is observed.
func (s *Scorer) Score(labels []bgp.LinkID) float64 {
	if len(labels) != s.n {
		panic(fmt.Sprintf("cluster: %d labels for %d sources", len(labels), s.n))
	}
	// Pass 1: number the refined clusters densely in first-occurrence
	// order, exactly as Refine would, accumulating each one's size and
	// volume.
	sizes, vols := s.sizes[:0], s.vols[:0]
	for _, w := range s.walk {
		id, fresh := s.t.id(w.base+labelSlot(labels[w.k]), int32(len(sizes)))
		if fresh {
			sizes, vols = append(sizes, 0), append(vols, 0)
		}
		sizes[id]++
		vols[id] += w.vol
	}
	s.t.reset()
	s.sizes, s.vols = sizes, vols
	// Pass 2: fold sizes into the volume-weighted mean.
	total, acc := 0.0, 0.0
	for id, v := range vols {
		total += v
		acc += v * float64(sizes[id])
	}
	if total == 0 {
		return 0
	}
	return acc / total
}
