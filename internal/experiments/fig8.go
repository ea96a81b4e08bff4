package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/core"
	"spooftrack/internal/sched"
)

// The scheduling comparison's sizes. fig8Sequences is the size of the
// random-order ensemble: the paper used 30,000, and 200 trades that for
// runtime while keeping stable quartiles. fig8GreedySteps bounds the
// greedy trajectory (the interesting region is the first tens).
const (
	fig8Sequences   = 200
	fig8GreedySteps = 64
	fig8Seed        = 42
)

// Fig8Result compares random and greedy deployment schedules over
// precomputed catchments (Fig. 8). The paper reports a mean cluster size
// of 7.8 ASes after ten random configurations versus 3.5 with the greedy
// order.
type Fig8Result struct {
	RandomP25, RandomMedian, RandomP75 sched.Trajectory
	Greedy                             sched.Trajectory
	GreedyOrder                        []int
	// At10 captures the figure's headline comparison after ten
	// configurations.
	RandomAt10, GreedyAt10 float64
}

// Fig8 runs the scheduling comparison on the campaign's catchment
// matrix.
func Fig8(camp *core.Campaign) *Fig8Result {
	return fig8(camp, fig8Sequences, fig8GreedySteps, fig8Seed)
}

// fig8 is Fig8 over a random ensemble of the given size and a greedy
// trajectory of at most greedySteps configurations (0 means all).
func fig8(camp *core.Campaign, sequences, greedySteps int, seed uint64) *Fig8Result {
	res := &Fig8Result{}
	res.RandomP25, res.RandomMedian, res.RandomP75 = sched.RandomEnsemble(camp.Catchments, sequences, seed)
	res.Greedy, res.GreedyOrder = sched.GreedyTrajectory(camp.Catchments, greedySteps)
	if len(res.RandomMedian) >= 10 {
		res.RandomAt10 = res.RandomMedian[9]
	}
	if len(res.Greedy) >= 10 {
		res.GreedyAt10 = res.Greedy[9]
	}
	return res
}

// String renders both schedules at log-spaced checkpoints.
func (r *Fig8Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8: mean cluster size vs. announcement schedule\n")
	fmt.Fprintf(&sb, "  after 10 configs: random median %.2f, greedy %.2f\n", r.RandomAt10, r.GreedyAt10)
	fmt.Fprintf(&sb, "  %8s %10s %22s %10s\n", "configs", "rand p25", "rand median (p75)", "greedy")
	n := len(r.Greedy)
	if len(r.RandomMedian) < n {
		n = len(r.RandomMedian)
	}
	for _, i := range logCheckpoints(n) {
		fmt.Fprintf(&sb, "  %8d %10.2f %12.2f (%6.2f) %10.2f\n",
			i+1, r.RandomP25[i], r.RandomMedian[i], r.RandomP75[i], r.Greedy[i])
	}
	return sb.String()
}
