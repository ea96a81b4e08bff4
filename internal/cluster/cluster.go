// Package cluster implements the paper's observation-correlation step
// (§III-B): a cluster is a set of sources that were in the same catchment
// across every announcement configuration deployed so far. Starting from
// a single cluster holding all sources, each configuration's catchments
// refine the partition; sources that end up alone can be localized
// exactly.
//
// The Partition type supports incremental refinement (one configuration
// at a time), which makes per-configuration trajectories (Fig. 4, Fig. 8)
// cost O(sources) per step.
package cluster

import (
	"fmt"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// Partition tracks cluster membership for a fixed universe of sources,
// identified by their position 0..n-1 in the campaign's source list.
type Partition struct {
	// assign[k] is the cluster id of source k; ids are dense in
	// [0, numClusters).
	assign []int32
	num    int
}

// New returns a partition with all n sources in a single cluster.
func New(n int) *Partition {
	p := &Partition{assign: make([]int32, n)}
	if n > 0 {
		p.num = 1
	}
	return p
}

// Clone returns an independent copy of the partition.
func (p *Partition) Clone() *Partition {
	cp := &Partition{assign: append([]int32(nil), p.assign...), num: p.num}
	return cp
}

// NumSources returns the size of the universe.
func (p *Partition) NumSources() int { return len(p.assign) }

// NumClusters returns the number of clusters.
func (p *Partition) NumClusters() int { return p.num }

// ClusterOf returns the cluster id of source k.
func (p *Partition) ClusterOf(k int) int { return int(p.assign[k]) }

// Refine splits clusters by the catchment labels of one configuration:
// two sources stay together only if they have the same label. All
// unobserved sources (bgp.NoLink) share one label — a configuration
// cannot separate sources it did not observe, which is exactly why §IV-d
// imputes visibility first. Cluster ids are renumbered densely, ordered
// by first occurrence, so refinement is deterministic.
func (p *Partition) Refine(labels []bgp.LinkID) {
	if len(labels) != len(p.assign) {
		panic(fmt.Sprintf("cluster: %d labels for %d sources", len(labels), len(p.assign)))
	}
	width := int32(maxLabel(labels)) + 2
	t := borrowTable(p.num * int(width))
	next := int32(0)
	for k, c := range p.assign {
		id, fresh := t.id(c*width+labelSlot(labels[k]), next)
		if fresh {
			next++
		}
		p.assign[k] = id
	}
	p.num = int(next)
	t.release()
}

// maxLabel returns the largest non-negative label.
func maxLabel(labels []bgp.LinkID) bgp.LinkID {
	max := bgp.LinkID(0)
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	return max
}

// labelSlot maps a label to a table column: NoLink (and any negative
// label) shares slot 0; link l uses slot l+1.
func labelSlot(l bgp.LinkID) int32 {
	return max(int32(l)+1, 0)
}

// RefinedCopy returns Clone().Refine(labels) without mutating p.
func (p *Partition) RefinedCopy(labels []bgp.LinkID) *Partition {
	cp := p.Clone()
	cp.Refine(labels)
	return cp
}

// Assignments returns a copy of the per-source cluster assignment —
// assign[k] is source k's dense cluster id. This is the canonical
// verdict representation the provenance ledger records and replays.
func (p *Partition) Assignments() []int32 {
	return append([]int32(nil), p.assign...)
}

// NumClustersAfter returns the number of clusters that refining by the
// labels would produce, without modifying the partition. This is the
// inner loop of greedy scheduling, so a warm call allocates nothing.
func (p *Partition) NumClustersAfter(labels []bgp.LinkID) int {
	width := int32(maxLabel(labels)) + 2
	t := borrowTable(p.num * int(width))
	n := int32(0)
	for k, c := range p.assign {
		if _, fresh := t.id(c*width+labelSlot(labels[k]), n); fresh {
			n++
		}
	}
	t.release()
	return int(n)
}

// Sizes returns the size of every cluster, indexed by cluster id.
func (p *Partition) Sizes() []int {
	sizes := make([]int, p.num)
	for _, c := range p.assign {
		sizes[c]++
	}
	return sizes
}

// Members returns the sources of every cluster, indexed by cluster id.
func (p *Partition) Members() [][]int {
	out := make([][]int, p.num)
	for k, c := range p.assign {
		out[c] = append(out[c], k)
	}
	return out
}

// MembersOf returns the sources of one cluster, in index order, without
// materializing the full per-cluster membership lists — what a live
// status endpoint wants when reporting only the top few clusters.
func (p *Partition) MembersOf(id int) []int {
	var out []int
	for k, c := range p.assign {
		if int(c) == id {
			out = append(out, k)
		}
	}
	return out
}

// Metrics summarizes a partition the way the paper's figures do.
type Metrics struct {
	NumClusters int
	// MeanSize is the mean cluster size (total sources / clusters) —
	// the quantity in Fig. 4, Fig. 5, Fig. 8 and the 1.40-AS headline.
	MeanSize float64
	// P90Size is the 90th percentile of cluster sizes (Fig. 4).
	P90Size float64
	// MaxSize is the largest cluster.
	MaxSize int
	// SingletonFrac is the fraction of clusters holding a single source
	// (the paper reports 92% after all 705 configurations).
	SingletonFrac float64
}

// Summarize computes partition metrics.
func (p *Partition) Summarize() Metrics {
	sizes := p.Sizes()
	if len(sizes) == 0 {
		return Metrics{}
	}
	singles, max := 0, 0
	for _, s := range sizes {
		if s == 1 {
			singles++
		}
		if s > max {
			max = s
		}
	}
	return Metrics{
		NumClusters:   len(sizes),
		MeanSize:      float64(len(p.assign)) / float64(len(sizes)),
		P90Size:       stats.PercentileInts(sizes, 90),
		MaxSize:       max,
		SingletonFrac: float64(singles) / float64(len(sizes)),
	}
}

// MeanSizeWeighted returns the mean cluster size experienced by a
// source (size-weighted mean, as in Fig. 7's per-AS averages).
func (p *Partition) MeanSizeWeighted() float64 {
	if len(p.assign) == 0 {
		return 0
	}
	sizes := p.Sizes()
	total := 0
	for _, c := range p.assign {
		total += int(sizes[c])
	}
	return float64(total) / float64(len(p.assign))
}

// SizeCCDF returns the complementary CDF of cluster sizes (Fig. 3 and
// Fig. 6).
func (p *Partition) SizeCCDF() []stats.CCDFPoint {
	return stats.CCDFInts(p.Sizes())
}

// SizeOfSource returns the size of the cluster containing source k.
func (p *Partition) SizeOfSource(k int) int {
	return p.Sizes()[p.assign[k]]
}
