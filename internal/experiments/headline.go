package experiments

import (
	"fmt"
	"strings"
	"time"

	"spooftrack/internal/core"
	"spooftrack/internal/sched"
)

// HeadlineResult collects the campaign-level numbers quoted through the
// paper's abstract, §IV and §V: the 705-configuration plan shape, the
// dataset size, the 1.40-AS mean cluster size, the 92% singleton
// fraction, and the measurement-quality figures (2.28% multi-catchment
// ASes, imputation volume).
type HeadlineResult struct {
	NumConfigs    int
	PhaseCounts   map[sched.Phase]int
	NumSources    int
	MeanSize      float64
	SingletonFrac float64
	P90Size       float64
	MaxSize       int
	// MultiCatchmentFrac is the average fraction of observed ASes with
	// conflicting catchment evidence per configuration.
	MultiCatchmentFrac float64
	// ImputedFrac is the fraction of (config, source) cells filled via
	// smax.
	ImputedFrac float64
	// Elapsed is the simulated campaign duration (70 min per config).
	Elapsed time.Duration
}

// Headline computes the campaign summary.
func Headline(camp *core.Campaign) *HeadlineResult {
	m := camp.FinalPartition().Summarize()
	res := &HeadlineResult{
		NumConfigs:    camp.NumConfigs(),
		PhaseCounts:   sched.PhaseCounts(camp.Plan),
		NumSources:    camp.NumSources(),
		MeanSize:      m.MeanSize,
		SingletonFrac: m.SingletonFrac,
		P90Size:       m.P90Size,
		MaxSize:       m.MaxSize,
		Elapsed:       camp.Elapsed,
	}
	if camp.Measurements != nil {
		multi, obs := 0, 0
		for _, mm := range camp.Measurements {
			multi += mm.MultiCatchment
			obs += mm.ObservedCount()
		}
		if obs > 0 {
			res.MultiCatchmentFrac = float64(multi) / float64(obs)
		}
	}
	if camp.Imputed != nil && camp.NumSources() > 0 {
		cells := camp.NumConfigs() * camp.NumSources()
		res.ImputedFrac = float64(camp.Imputed.Imputed) / float64(cells)
	}
	return res
}

// String renders the summary.
func (r *HeadlineResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Headline campaign summary\n")
	fmt.Fprintf(&sb, "  configurations: %d (locations %d + prepending %d + poisoning %d)\n",
		r.NumConfigs, r.PhaseCounts[sched.PhaseLocations],
		r.PhaseCounts[sched.PhasePrepending], r.PhaseCounts[sched.PhasePoisoning])
	fmt.Fprintf(&sb, "  sources analyzed: %d ASes\n", r.NumSources)
	fmt.Fprintf(&sb, "  mean cluster size: %.2f ASes (paper: 1.40)\n", r.MeanSize)
	fmt.Fprintf(&sb, "  singleton clusters: %.1f%% (paper: 92%%)\n", r.SingletonFrac*100)
	fmt.Fprintf(&sb, "  p90 cluster size: %.1f, max: %d\n", r.P90Size, r.MaxSize)
	fmt.Fprintf(&sb, "  multi-catchment ASes: %.2f%% (paper: 2.28%%)\n", r.MultiCatchmentFrac*100)
	fmt.Fprintf(&sb, "  imputed catchment cells: %.1f%%\n", r.ImputedFrac*100)
	fmt.Fprintf(&sb, "  simulated duration: %s (70 min per configuration)\n", r.Elapsed)
	return sb.String()
}
