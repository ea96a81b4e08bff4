package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/core"
	"spooftrack/internal/sched"
	"spooftrack/internal/stats"
)

// Fig3Result is the complementary cumulative distribution of cluster
// sizes at the end of each technique phase (Fig. 3). The paper reports
// 92% singleton clusters after all 705 configurations, with 14 clusters
// larger than 5 ASes holding 7.9% of the dataset's ASes.
type Fig3Result struct {
	// CCDF maps each phase to its cluster-size CCDF.
	CCDF map[sched.Phase][]stats.CCDFPoint
	// SingletonFrac maps each phase to the fraction of single-AS
	// clusters.
	SingletonFrac map[sched.Phase]float64
	// LargeClusters and LargeClusterASFrac report, for the final phase,
	// how many clusters exceed 5 ASes and what fraction of sources they
	// hold.
	LargeClusters      int
	LargeClusterASFrac float64
}

// Fig3 computes the phase-by-phase cluster-size distributions.
func Fig3(camp *core.Campaign) *Fig3Result {
	res := &Fig3Result{
		CCDF:          make(map[sched.Phase][]stats.CCDFPoint, 3),
		SingletonFrac: make(map[sched.Phase]float64, 3),
	}
	parts := camp.PhasePartitions()
	for ph, part := range parts {
		res.CCDF[ph] = part.SizeCCDF()
		res.SingletonFrac[ph] = part.Summarize().SingletonFrac
	}
	final := camp.FinalPartition()
	large, largeASes := 0, 0
	for _, s := range final.Sizes() {
		if s > 5 {
			large++
			largeASes += s
		}
	}
	res.LargeClusters = large
	res.LargeClusterASFrac = float64(largeASes) / float64(final.NumSources())
	return res
}

// String renders the distributions as the figure's series.
func (r *Fig3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: CCDF of cluster sizes after each phase\n")
	for _, ph := range []sched.Phase{sched.PhaseLocations, sched.PhasePrepending, sched.PhasePoisoning} {
		pts, ok := r.CCDF[ph]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "  phase %-11s (singleton clusters: %5.1f%%)\n", ph, r.SingletonFrac[ph]*100)
		for _, pt := range pts {
			fmt.Fprintf(&sb, "    size>=%4.0f  frac=%.4f\n", pt.Value, pt.Frac)
		}
	}
	fmt.Fprintf(&sb, "  final: %d clusters larger than 5 ASes holding %.1f%% of ASes\n",
		r.LargeClusters, r.LargeClusterASFrac*100)
	return sb.String()
}
