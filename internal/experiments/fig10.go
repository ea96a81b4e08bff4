package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/core"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stats"
)

// The spoofed-traffic study's sizes, the paper's: each distribution is
// averaged over fig10Placements random placements of fig10Bots spoofing
// hosts (uniform and Pareto), and the x-axis ends at fig10MaxSize.
const (
	fig10Placements = 1000
	fig10Bots       = 100
	fig10MaxSize    = 16
	fig10Seed       = 42
)

// Fig10Result is the cumulative fraction of spoofed-traffic volume in
// clusters up to each size, averaged over placements, for the three
// §V-D source distributions. The paper observes that most spoofed
// traffic originates from ASes in small clusters under all three.
type Fig10Result struct {
	Uniform []spoof.TrafficBySizePoint
	Pareto  []spoof.TrafficBySizePoint
	Single  []spoof.TrafficBySizePoint
}

// Fig10 runs the placement simulations over the campaign's final
// partition.
func Fig10(camp *core.Campaign) *Fig10Result { return fig10(camp, fig10Placements) }

// fig10 is Fig10 averaged over the given number of placements.
func fig10(camp *core.Campaign, placements int) *Fig10Result {
	part := camp.FinalPartition()
	n := part.NumSources()
	rng := stats.NewRNG(fig10Seed ^ 0xf16a10)
	run := func(place func(r *stats.RNG) spoof.Placement) []spoof.TrafficBySizePoint {
		curves := make([][]spoof.TrafficBySizePoint, 0, placements)
		for t := 0; t < placements; t++ {
			curves = append(curves, spoof.TrafficBySize(part, place(rng.Split())))
		}
		return spoof.AverageTrafficBySize(curves, fig10MaxSize)
	}
	return &Fig10Result{
		Uniform: run(func(r *stats.RNG) spoof.Placement { return spoof.PlaceUniform(r, n, fig10Bots) }),
		Pareto:  run(func(r *stats.RNG) spoof.Placement { return spoof.PlacePareto(r, n, fig10Bots) }),
		Single:  run(func(r *stats.RNG) spoof.Placement { return spoof.PlaceSingle(r, n) }),
	}
}

// String renders the three averaged curves.
func (r *Fig10Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10: cumulative traffic volume vs. cluster size\n")
	fmt.Fprintf(&sb, "  %6s %10s %10s %10s\n", "size", "uniform", "pareto", "single")
	for i := range r.Uniform {
		fmt.Fprintf(&sb, "  %6d %10.3f %10.3f %10.3f\n",
			r.Uniform[i].Size, r.Uniform[i].CumFrac, r.Pareto[i].CumFrac, r.Single[i].CumFrac)
	}
	return sb.String()
}
