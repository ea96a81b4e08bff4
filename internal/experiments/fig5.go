package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/sched"
	"spooftrack/internal/stats"
)

// FootprintScenario is one emulated peering footprint: a subset of the
// campaign's links and the sub-campaign trajectories over all subsets of
// that size.
type FootprintScenario struct {
	// Locations is the footprint size (7, 6, or 5 in the paper).
	Locations int
	// NumConfigs is the number of usable configurations per subset
	// (358, 118, 31 in the paper).
	NumConfigs int
	// MeanTrajectory is the across-subsets mean of the mean-cluster-size
	// trajectory; Min/Max bound it (the figure's shaded area).
	MeanTrajectory, MinTrajectory, MaxTrajectory []float64
	// FinalCCDF pools cluster sizes at the end of every subset's
	// trajectory (Fig. 6's distribution).
	FinalCCDF []stats.CCDFPoint
	// FracOver25 is the fraction of final clusters larger than 25 ASes
	// (the paper reports 0.1%, 1.27%, 4.29% for 7/6/5 locations).
	FracOver25 float64
}

// Fig5Result compares localization precision across peering footprints
// (Fig. 5 and Fig. 6 share this computation).
type Fig5Result struct {
	Scenarios []FootprintScenario
}

// Fig5 emulates 7-, 6-, and 5-location networks by restricting the
// default campaign to configurations using only the retained links,
// exactly as the paper discards PoPs from its dataset. Only location and
// prepending configurations participate (the paper's 358/118/31 counts).
func Fig5(camp *core.Campaign) *Fig5Result {
	numLinks := camp.World.Platform.NumLinks()
	prependEnd := sched.PhaseEnd(camp.Plan, sched.PhasePrepending)
	res := &Fig5Result{}
	for _, drop := range []int{0, 1, 2} {
		scenario := FootprintScenario{Locations: numLinks - drop}
		var trajectories [][]float64
		var finalSizes []int
		for _, keepLinks := range linkSubsets(numLinks, numLinks-drop) {
			keep := camp.ConfigsUsingOnlyLinks(keepLinks)
			// Restrict to location+prepending phases.
			var kept []int
			for _, i := range keep {
				if i < prependEnd {
					kept = append(kept, i)
				}
			}
			sub := camp.SubCampaign(kept)
			traj := sub.MetricsTrajectory()
			means := make([]float64, len(traj))
			for i, m := range traj {
				means[i] = m.MeanSize
			}
			trajectories = append(trajectories, means)
			finalSizes = append(finalSizes, sub.FinalPartition().Sizes()...)
			scenario.NumConfigs = len(kept)
		}
		steps := scenario.NumConfigs
		scenario.MeanTrajectory = make([]float64, steps)
		scenario.MinTrajectory = make([]float64, steps)
		scenario.MaxTrajectory = make([]float64, steps)
		for i := 0; i < steps; i++ {
			vals := make([]float64, 0, len(trajectories))
			for _, tr := range trajectories {
				vals = append(vals, tr[i])
			}
			scenario.MeanTrajectory[i] = stats.Mean(vals)
			scenario.MinTrajectory[i], scenario.MaxTrajectory[i] = minMax(vals)
		}
		scenario.FinalCCDF = stats.CCDFInts(finalSizes)
		scenario.FracOver25 = stats.FracGreater(finalSizes, 25)
		res.Scenarios = append(res.Scenarios, scenario)
	}
	return res
}

// linkSubsets enumerates subsets of {0..n-1} of the given size.
func linkSubsets(n, size int) [][]bgp.LinkID {
	var out [][]bgp.LinkID
	var rec func(start int, cur []bgp.LinkID)
	rec = func(start int, cur []bgp.LinkID) {
		if len(cur) == size {
			out = append(out, append([]bgp.LinkID(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, bgp.LinkID(i)))
		}
	}
	rec(0, nil)
	return out
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// String renders the Fig. 5 trajectories.
func (r *Fig5Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: mean cluster size when removing peering locations\n")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&sb, "  %d locations (%d configs):\n", s.Locations, s.NumConfigs)
		for _, i := range logCheckpoints(len(s.MeanTrajectory)) {
			fmt.Fprintf(&sb, "    configs=%4d mean=%7.2f [%.2f, %.2f]\n",
				i+1, s.MeanTrajectory[i], s.MinTrajectory[i], s.MaxTrajectory[i])
		}
	}
	return sb.String()
}

// Fig6String renders the same scenarios as Fig. 6's final distributions.
func (r *Fig5Result) Fig6String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6: distribution of cluster size after removing locations\n")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&sb, "  %d locations: %.2f%% of clusters larger than 25 ASes\n",
			s.Locations, s.FracOver25*100)
		for _, pt := range s.FinalCCDF {
			fmt.Fprintf(&sb, "    size>=%4.0f frac=%.4f\n", pt.Value, pt.Frac)
		}
	}
	return sb.String()
}
