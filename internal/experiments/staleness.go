package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stats"
)

// §V-C identifies a trade-off: reusing catchments measured before an
// attack is fast but "may incur errors due to route changes", while
// re-measuring during the attack is slow. ExtStaleness quantifies the
// fast path: a seeded fraction of ASes change their routing behaviour
// between campaign time and attack time (bgp.Engine.Perturbed), the
// honeypot measures volumes under the *new* routes, and localization
// correlates them against the *old* catchment map — strictly, and with
// the mismatch tolerance a deployed system would use.

// StalenessPoint is one tolerance setting's outcome.
type StalenessPoint struct {
	// MaxMissFrac is the tolerated fraction of configurations where a
	// candidate's link carried no traffic.
	MaxMissFrac float64
	// HitRate is the fraction of trials keeping the true attacker.
	HitRate float64
	// MeanCandidates is the average candidate-set size.
	MeanCandidates float64
}

// ExtStalenessResult compares localization against stale vs. fresh
// catchments across tolerance levels.
type ExtStalenessResult struct {
	// DriftFrac is the fraction of ASes whose routing behaviour
	// changed.
	DriftFrac float64
	// CatchmentChangedFrac is the fraction of (config, source) cells
	// whose catchment differs between campaign time and attack time.
	CatchmentChangedFrac float64
	// Trials is the number of single-attacker trials.
	Trials int
	// Fresh is the strict localization against up-to-date catchments
	// (the slow, re-measure path).
	Fresh StalenessPoint
	// Stale holds the stale-map results per tolerance level.
	Stale []StalenessPoint
}

// ExtStaleness runs the study on the campaign with the given AS
// drift fraction.
func ExtStaleness(camp *core.Campaign, trials int, driftFrac float64) (*ExtStalenessResult, error) {
	w := camp.World
	driftEngine, err := w.Platform.Engine().Perturbed(driftFrac, w.Params.Seed+1)
	if err != nil {
		return nil, err
	}
	fresh := make([][]bgp.LinkID, len(camp.Plan))
	for i, pc := range camp.Plan {
		out, err := driftEngine.Propagate(pc.Config)
		if err != nil {
			return nil, err
		}
		row := make([]bgp.LinkID, len(camp.Sources))
		for k, src := range camp.Sources {
			row[k] = out.CatchmentOf(src)
		}
		fresh[i] = row
	}
	stale := camp.Catchments

	res := &ExtStalenessResult{DriftFrac: driftFrac, Trials: trials}
	changed, total := 0, 0
	for c := range stale {
		for k := range stale[c] {
			total++
			if stale[c][k] != fresh[c][k] {
				changed++
			}
		}
	}
	if total > 0 {
		res.CatchmentChangedFrac = float64(changed) / float64(total)
	}

	tolerances := []float64{0, 0.02, 0.10, 0.25}
	rng := stats.NewRNG(w.Params.Seed ^ 0x57a1e)
	numLinks := w.Platform.NumLinks()
	n := camp.NumSources()
	numConfigs := len(stale)
	staleHits := make([]int, len(tolerances))
	staleCands := make([]int, len(tolerances))
	freshHits, freshCands := 0, 0
	for t := 0; t < trials; t++ {
		placement := spoof.PlaceSingle(rng.Split(), n)
		trueIdx := -1
		for k, wgt := range placement.Weight {
			if wgt > 0 {
				trueIdx = k
			}
		}
		volumes := make([][]float64, len(fresh))
		for c := range fresh {
			volumes[c] = spoof.LinkVolumes(fresh[c], placement, numLinks)
		}
		freshSet := spoof.Localize(fresh, volumes)
		freshCands += len(freshSet)
		if containsIdx(freshSet, trueIdx) {
			freshHits++
		}
		for ti, tol := range tolerances {
			set := spoof.LocalizeTolerant(stale, volumes, int(tol*float64(numConfigs)))
			staleCands[ti] += len(set)
			if containsIdx(set, trueIdx) {
				staleHits[ti]++
			}
		}
	}
	res.Fresh = StalenessPoint{
		HitRate:        float64(freshHits) / float64(trials),
		MeanCandidates: float64(freshCands) / float64(trials),
	}
	for ti, tol := range tolerances {
		res.Stale = append(res.Stale, StalenessPoint{
			MaxMissFrac:    tol,
			HitRate:        float64(staleHits[ti]) / float64(trials),
			MeanCandidates: float64(staleCands[ti]) / float64(trials),
		})
	}
	return res, nil
}

func containsIdx(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// String renders the staleness study.
func (r *ExtStalenessResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: stale-catchment localization accuracy (§V-C)\n")
	fmt.Fprintf(&sb, "  route drift: %.0f%% of ASes re-decided; %.1f%% of catchment cells changed\n",
		r.DriftFrac*100, r.CatchmentChangedFrac*100)
	fmt.Fprintf(&sb, "  over %d single-attacker trials:\n", r.Trials)
	fmt.Fprintf(&sb, "    fresh catchments (re-measured): hit rate %.0f%%, %.1f candidates\n",
		r.Fresh.HitRate*100, r.Fresh.MeanCandidates)
	for _, p := range r.Stale {
		fmt.Fprintf(&sb, "    stale, tolerating %4.0f%% misses: hit rate %3.0f%%, %.1f candidates\n",
			p.MaxMissFrac*100, p.HitRate*100, p.MeanCandidates)
	}
	return sb.String()
}
