package experiments

import (
	"fmt"
	"sort"
	"strings"

	"spooftrack/internal/core"
)

// Fig7Result breaks cluster sizes down by the AS-hop distance between
// each source and the closest announcement location (Fig. 7). The paper
// finds ASes 1-2 hops from PEERING in clusters of 1.85 ASes on average
// and ASes 3+ hops away in clusters of 2.64 ASes: nearby sources are
// easier to isolate, but distant ones remain actionable.
type Fig7Result struct {
	// Groups maps the distance label (1, 2, 3; 4 means "4 or more") to
	// the cumulative distribution of cluster sizes for sources at that
	// distance.
	Groups map[int][]Fig7Point
	// MeanByGroup is the per-source mean cluster size per distance
	// group.
	MeanByGroup map[int]float64
	// MeanNear and MeanFar aggregate distances 1-2 and 3+, matching the
	// paper's 1.85 / 2.64 comparison.
	MeanNear, MeanFar float64
}

// Fig7Point is one point of a group's CDF: the fraction of the group's
// sources in clusters of size at most Size.
type Fig7Point struct {
	Size    int
	CumFrac float64
}

// Fig7 computes the distance breakdown for the default campaign.
func Fig7(camp *core.Campaign) *Fig7Result {
	g := camp.World.Graph
	var provs []int
	for _, m := range camp.World.Platform.Muxes() {
		provs = append(provs, m.Provider)
	}
	dist := g.HopDistances(provs)
	final := camp.FinalPartition()
	sizes := final.Sizes()

	groupOf := func(d int) int {
		if d < 1 {
			d = 1
		}
		if d > 4 {
			d = 4
		}
		return d
	}
	bySize := make(map[int]map[int]int) // group -> cluster size -> count
	counts := make(map[int]int)
	sum := make(map[int]int)
	var nearSum, nearN, farSum, farN int
	for k, src := range camp.Sources {
		d := dist[src]
		if d < 0 {
			continue
		}
		grp := groupOf(d)
		size := sizes[final.ClusterOf(k)]
		if bySize[grp] == nil {
			bySize[grp] = make(map[int]int)
		}
		bySize[grp][size]++
		counts[grp]++
		sum[grp] += size
		if d <= 2 {
			nearSum += size
			nearN++
		} else {
			farSum += size
			farN++
		}
	}
	res := &Fig7Result{
		Groups:      make(map[int][]Fig7Point, 4),
		MeanByGroup: make(map[int]float64, 4),
	}
	for grp, hist := range bySize {
		var szs []int
		for s := range hist {
			szs = append(szs, s)
		}
		sort.Ints(szs)
		acc := 0
		pts := make([]Fig7Point, 0, len(szs))
		for _, s := range szs {
			acc += hist[s]
			pts = append(pts, Fig7Point{Size: s, CumFrac: float64(acc) / float64(counts[grp])})
		}
		res.Groups[grp] = pts
		res.MeanByGroup[grp] = float64(sum[grp]) / float64(counts[grp])
	}
	if nearN > 0 {
		res.MeanNear = float64(nearSum) / float64(nearN)
	}
	if farN > 0 {
		res.MeanFar = float64(farSum) / float64(farN)
	}
	return res
}

// String renders the per-distance distributions.
func (r *Fig7Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: cluster size vs. AS-hop distance from the origin\n")
	fmt.Fprintf(&sb, "  mean cluster size: 1-2 hops %.2f ASes, 3+ hops %.2f ASes\n", r.MeanNear, r.MeanFar)
	for grp := 1; grp <= 4; grp++ {
		pts, ok := r.Groups[grp]
		if !ok {
			continue
		}
		label := fmt.Sprintf("%d hops", grp)
		if grp == 4 {
			label = "4+ hops"
		}
		fmt.Fprintf(&sb, "  ASes %s from origin (mean %.2f):\n", label, r.MeanByGroup[grp])
		for _, pt := range pts {
			if pt.Size > 25 && pt.CumFrac < 1 {
				continue // the figure's x-axis stops at 25
			}
			fmt.Fprintf(&sb, "    size<=%3d cumfrac=%.3f\n", pt.Size, pt.CumFrac)
		}
	}
	return sb.String()
}
