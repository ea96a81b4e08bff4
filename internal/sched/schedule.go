package sched

import (
	"math/bits"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/stats"
)

// A schedule operates on precomputed catchment measurements: when
// localizing during an attack, the origin deploys configurations whose
// catchments it measured beforehand and assumes routes are stable
// (§V-C). catchments[c][k] is the catchment of source k under
// configuration c.

// Trajectory is the mean cluster size after each deployed configuration.
type Trajectory []float64

// RandomTrajectory deploys the configurations in a random order (without
// repetition) and reports the mean cluster size after each step.
func RandomTrajectory(catchments [][]bgp.LinkID, rng *stats.RNG) Trajectory {
	if len(catchments) == 0 {
		return nil
	}
	n := len(catchments[0])
	order := rng.Perm(len(catchments))
	p := cluster.New(n)
	out := make(Trajectory, 0, len(catchments))
	for _, c := range order {
		p.Refine(catchments[c])
		out = append(out, p.Summarize().MeanSize)
	}
	return out
}

// RandomEnsemble runs nSeq random trajectories and reports, per step,
// the 25th percentile, median, and 75th percentile of the mean cluster
// size across sequences (the paper's Fig. 8 shades variance over 30,000
// sequences).
func RandomEnsemble(catchments [][]bgp.LinkID, nSeq int, seed uint64) (p25, median, p75 Trajectory) {
	if len(catchments) == 0 || nSeq <= 0 {
		return nil, nil, nil
	}
	steps := len(catchments)
	perStep := make([][]float64, steps)
	for i := range perStep {
		perStep[i] = make([]float64, 0, nSeq)
	}
	rng := stats.NewRNG(seed ^ 0x5eed5c4ed)
	for s := 0; s < nSeq; s++ {
		tr := RandomTrajectory(catchments, rng.Split())
		for i, v := range tr {
			perStep[i] = append(perStep[i], v)
		}
	}
	p25 = make(Trajectory, steps)
	median = make(Trajectory, steps)
	p75 = make(Trajectory, steps)
	for i := range perStep {
		p25[i] = stats.Percentile(perStep[i], 25)
		median[i] = stats.Percentile(perStep[i], 50)
		p75[i] = stats.Percentile(perStep[i], 75)
	}
	return p25, median, p75
}

// NextGreedy returns the index of the not-yet-used configuration whose
// refinement of p yields the most clusters (equivalently, the smallest
// mean cluster size), or -1 if every configuration is used. Ties break
// toward the lowest index for determinism. GreedyTrajectory iterates it
// for the offline studies (Fig. 8, the extspeed study and
// examples/dataset-analysis); the live loop picks through Loop.Next,
// which asks NextGreedyVolumeScored.
func NextGreedy(p *cluster.Partition, catchments [][]bgp.LinkID, used []bool) int {
	best, bestClusters := -1, -1
	for c := range catchments {
		if used[c] {
			continue
		}
		k := p.NumClustersAfter(catchments[c])
		if k > bestClusters || (k == bestClusters && (best == -1 || c < best)) {
			best, bestClusters = c, k
		}
	}
	return best
}

// QuarantineMask computes the per-configuration blocked mask for a
// plan: blocked[c] is true when any announcement of configuration c
// rides a link isQuarantined reports unhealthy. It returns nil when no
// configuration is blocked, so fault-free callers pay one scan and no
// allocation.
func QuarantineMask(plan []PlannedConfig, isQuarantined func(bgp.LinkID) bool) []bool {
	var blocked []bool
	for c := range plan {
		for _, a := range plan[c].Config.Anns {
			if isQuarantined(a.Link) {
				if blocked == nil {
					blocked = make([]bool, len(plan))
				}
				blocked[c] = true
				break
			}
		}
	}
	return blocked
}

// RotationWindow returns the target indices a budget-bounded scan round
// should cover, rotating fairly through all n targets: round r covers
// budget consecutive indices starting at (r*budget) mod n, wrapping, so
// ceil(n/budget) consecutive rounds touch every target and every target
// is revisited at the same cadence. With budget >= n (or budget <= 0)
// the window is simply all n targets. The probe scan loop
// (internal/probe) schedules its per-round spoof-probe targets with
// this.
func RotationWindow(n, budget int, round uint64) []int {
	if n <= 0 {
		return nil
	}
	if budget <= 0 || budget >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	start := int((round * uint64(budget)) % uint64(n))
	out := make([]int, budget)
	for i := range out {
		out[i] = (start + i) % n
	}
	return out
}

// GreedyTrajectory deploys, at every step, the not-yet-deployed
// configuration that minimizes the resulting mean cluster size (§V-C's
// "iterative algorithm"). maxSteps bounds the trajectory length (the
// interesting region is the first tens of configurations); pass 0 for
// all configurations. It returns the trajectory and the chosen
// deployment order.
func GreedyTrajectory(catchments [][]bgp.LinkID, maxSteps int) (Trajectory, []int) {
	if len(catchments) == 0 {
		return nil, nil
	}
	n := len(catchments[0])
	steps := len(catchments)
	if maxSteps > 0 && maxSteps < steps {
		steps = maxSteps
	}
	used := make([]bool, len(catchments))
	p := cluster.New(n)
	traj := make(Trajectory, 0, steps)
	order := make([]int, 0, steps)
	for len(order) < steps {
		best := NextGreedy(p, catchments, used)
		if best == -1 {
			break
		}
		used[best] = true
		p.Refine(catchments[best])
		order = append(order, best)
		traj = append(traj, p.Summarize().MeanSize)
	}
	return traj, order
}

// NextGreedyVolumeMasked returns the unused, unblocked configuration
// minimizing the volume-weighted mean cluster size after refinement
// (§VIII-(i)), or -1 if there is none. A nil mask blocks nothing.
func NextGreedyVolumeMasked(p *cluster.Partition, catchments [][]bgp.LinkID, volume []float64, used, blocked []bool) int {
	best, _ := NextGreedyVolumeScored(p, catchments, volume, used, blocked, false)
	return best
}

// ConfigScore is one configuration's score in a greedy decision (lower
// is better for volume-weighted mean cluster size).
type ConfigScore struct {
	Config int     `json:"config"`
	Score  float64 `json:"score"`
}

// NextGreedyVolumeScored is the greedy volume step itself. Candidate
// scoring rides the incremental path (cluster.Scorer): the volume-
// bearing clusters are listed once with their whole-cluster terms, then
// each candidate re-counts only the clusters its labels split instead
// of cloning and refining the partition per configuration. With keep
// set it also returns the score of every eligible candidate in
// ascending configuration order — the candidate set the chosen
// configuration beat, which the provenance ledger records so a replay
// can re-derive the decision; without it the slice is nil and a warm
// step allocates nothing. The winner does not depend on keep.
func NextGreedyVolumeScored(p *cluster.Partition, catchments [][]bgp.LinkID, volume []float64, used, blocked []bool, keep bool) (int, []ConfigScore) {
	scorer := cluster.BorrowScorer()
	scorer.Reset(p, volume)
	best := -1
	bestScore := 0.0
	var scores []ConfigScore
	for c := range catchments {
		if used[c] || (blocked != nil && blocked[c]) {
			continue
		}
		score := scorer.Score(catchments[c])
		if keep {
			scores = append(scores, ConfigScore{Config: c, Score: score})
		}
		if best == -1 || score < bestScore {
			best, bestScore = c, score
		}
	}
	scorer.Release()
	return best, scores
}

// estimateInto attributes a round's per-link volumes to sources
// (§III-C attribution at round granularity): each candidate whose
// catchment under the folded configuration (row) is link l gets an
// equal share of volumes[l]; eliminated and unobserved sources get
// zero. It writes into est's array when it is large enough, so a Loop's
// fold reuses one estimate buffer.
func estimateInto(est []float64, row []bgp.LinkID, candidates []int, volumes []float64) []float64 {
	var onLink [bgp.MaxLinks + 1]int
	for _, k := range candidates {
		if l := row[k]; l != bgp.NoLink && int(l) < len(volumes) {
			onLink[l]++
		}
	}
	if cap(est) < len(row) {
		est = make([]float64, len(row))
	}
	est = est[:len(row)]
	clear(est)
	for _, k := range candidates {
		if l := row[k]; l != bgp.NoLink && int(l) < len(volumes) {
			est[k] = volumes[l] / float64(onLink[l])
		}
	}
	return est
}

// NextRemeasure picks the configuration to deploy for probe-conflict
// re-measurement: among unused, unblocked configurations, the one that
// re-observes the most hinted sources (catchment known, not
// bgp.NoLink). Ties break toward the configuration spreading the
// hinted sources across more distinct ingress links (more refinement
// potential per round), then toward the lowest index for determinism.
// It returns -1 when no configuration observes any hinted source —
// callers skip re-measurement that round. hints are source positions,
// typically probe.Audit's conflict set mapped through the campaign
// source list.
func NextRemeasure(catchments [][]bgp.LinkID, hints []int, used, blocked []bool) int {
	if len(hints) == 0 {
		return -1
	}
	best, bestSeen, bestLinks := -1, 0, 0
	for c := range catchments {
		if used[c] || (blocked != nil && blocked[c]) {
			continue
		}
		row := catchments[c]
		seen := 0
		var links [(bgp.MaxLinks + 63) / 64]uint64 // one bit per link id
		for _, k := range hints {
			if k < 0 || k >= len(row) || row[k] < 0 {
				continue
			}
			seen++
			links[row[k]/64] |= 1 << (row[k] % 64)
		}
		if seen == 0 {
			continue
		}
		numLinks := 0
		for _, w := range links {
			numLinks += bits.OnesCount64(w)
		}
		if seen > bestSeen || (seen == bestSeen && numLinks > bestLinks) {
			best, bestSeen, bestLinks = c, seen, numLinks
		}
	}
	return best
}
