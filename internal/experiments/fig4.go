package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/core"
	"spooftrack/internal/sched"
)

// Fig4Result traces mean and 90th-percentile cluster size as a function
// of the number of deployed configurations, with phase boundaries
// (Fig. 4). The paper observes diminishing returns, small steps at phase
// changes, and continued route manipulation even after hundreds of
// configurations.
type Fig4Result struct {
	Mean []float64
	P90  []float64
	// PhaseEnds marks the configuration index ending each phase.
	PhaseEnds map[sched.Phase]int
}

// Fig4 computes the cluster-size trajectory of the default campaign.
func Fig4(camp *core.Campaign) *Fig4Result {
	traj := camp.MetricsTrajectory()
	res := &Fig4Result{
		Mean:      make([]float64, len(traj)),
		P90:       make([]float64, len(traj)),
		PhaseEnds: make(map[sched.Phase]int, 3),
	}
	for i, m := range traj {
		res.Mean[i] = m.MeanSize
		res.P90[i] = m.P90Size
	}
	for _, ph := range []sched.Phase{sched.PhaseLocations, sched.PhasePrepending, sched.PhasePoisoning} {
		res.PhaseEnds[ph] = sched.PhaseEnd(camp.Plan, ph)
	}
	return res
}

// String renders the trajectory at logarithmically spaced checkpoints,
// matching the figure's log-scale x-axis.
func (r *Fig4Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: cluster size vs. number of configurations\n")
	fmt.Fprintf(&sb, "  phase ends: locations=%d prepending=%d poisoning=%d\n",
		r.PhaseEnds[sched.PhaseLocations], r.PhaseEnds[sched.PhasePrepending], r.PhaseEnds[sched.PhasePoisoning])
	fmt.Fprintf(&sb, "  %8s %12s %12s\n", "configs", "mean", "p90")
	for _, i := range logCheckpoints(len(r.Mean)) {
		fmt.Fprintf(&sb, "  %8d %12.2f %12.1f\n", i+1, r.Mean[i], r.P90[i])
	}
	return sb.String()
}

// logCheckpoints returns ~log-spaced indices into a series of length n,
// always including the first and last element.
func logCheckpoints(n int) []int {
	if n == 0 {
		return nil
	}
	var out []int
	last := -1
	for v := 1; v < n; v = v*3/2 + 1 {
		if v-1 != last {
			out = append(out, v-1)
			last = v - 1
		}
	}
	if last != n-1 {
		out = append(out, n-1)
	}
	return out
}
