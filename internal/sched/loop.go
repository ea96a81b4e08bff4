package sched

import (
	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/spoof"
)

// Loop is the live attribution loop's fold-and-decide state (§V-C, with
// §VIII-(i)'s volume-weighted pick): each round is folded into an
// incremental localizer and the cluster partition, and the next
// deployment splits the candidate cluster carrying the most estimated
// volume. The live evaluator (internal/stream), its failover restore and
// provenance replay all drive this one type, so a change to the pick is
// made once. It is not goroutine-safe.
type Loop struct {
	rows      [][]bgp.LinkID
	threshold int

	part       *cluster.Partition
	loc        *spoof.IncrementalLocalizer
	used       []bool
	current    int
	candidates []int

	// What the last Fold found, read by Next and Converged.
	estVol   []float64
	topSize  int
	canSplit bool

	// Fold's scratch: per-cluster volume and the top cluster's members.
	volByCluster []float64
	members      []int
}

// NewLoop starts a loop over the catchment rows (rows[c][k] is source
// k's catchment under configuration c) with initial deployed and every
// source a candidate. It keeps refining while the top volume-ranked
// candidate cluster holds more than threshold sources.
func NewLoop(rows [][]bgp.LinkID, initial, threshold int) *Loop {
	n := len(rows[0])
	l := &Loop{
		rows:      rows,
		threshold: threshold,
		part:      cluster.New(n),
		loc:       spoof.NewIncrementalLocalizer(n),
		used:      make([]bool, len(rows)),
		current:   initial,
		topSize:   -1,
	}
	l.used[initial] = true
	// The candidate set only shrinks, so one buffer of every source holds
	// it for the loop's life. No round folded: every source.
	l.candidates = l.loc.AppendCandidates(make([]int, 0, n), 0)
	return l
}

// Fold adds one round measured under configuration cfg: volumes[l] is
// the spoofed volume link l carried. A source stays a candidate only
// while its known catchment carried traffic in every round (the paper's
// exact correlation). The fold then ranks candidate clusters by
// estimated volume and records whether the heaviest one is still above
// the threshold and a configuration unused at fold time splits it; Next
// and Converged read that. volumes is not retained.
func (l *Loop) Fold(cfg int, volumes []float64) {
	row := l.rows[cfg]
	l.loc.AddRound(row, volumes)
	l.part.Refine(row)
	l.candidates = l.loc.AppendCandidates(l.candidates[:0], 0)
	l.estVol = estimateInto(l.estVol, row, l.candidates, volumes)
	var top, size int
	l.volByCluster, top, size = topVolumeCluster(l.volByCluster, l.part, l.candidates, l.estVol)
	l.topSize = size
	// Clusters bound localization precision (§V): once no remaining
	// configuration separates the heaviest cluster's members, deploying
	// further would burn configurations without refining anything.
	l.canSplit = false
	if size > l.threshold {
		l.members = l.part.AppendMembers(l.members[:0], top)
		l.canSplit = splittable(l.rows, l.used, l.members)
	}
}

// Next picks the deployment after the last fold without making it: the
// greedy volume-weighted "split" while the top cluster can be split,
// else the "remeasure" configuration that re-observes the most hinted
// sources, else -1. Blocked configurations are routed around, not
// consumed: when every useful one is blocked the loop waits and retries
// them once unblocked. With keep set a split also returns the scores of
// the candidates it beat.
func (l *Loop) Next(blocked []bool, hints []int, keep bool) (cfg int, reason string, scores []ConfigScore) {
	if l.canSplit {
		if next, beaten := NextGreedyVolumeScored(l.part, l.rows, l.estVol, l.used, blocked, keep); next >= 0 {
			return next, "split", beaten
		}
	}
	// Probe-conflict re-measurement: hints are sources whose probe and
	// catchment evidence disagree; spend the round re-observing them.
	if next := NextRemeasure(l.rows, hints, l.used, blocked); next >= 0 {
		return next, "remeasure", nil
	}
	return -1, "", nil
}

// Deploy makes cfg the configuration the next round is measured under.
func (l *Loop) Deploy(cfg int) {
	l.used[cfg] = true
	l.current = cfg
}

// Converged reports whether the last fold left the heaviest candidate
// cluster within the threshold or beyond what any unused configuration
// can split. It is false before the first fold and after a fold that
// left no candidate carrying volume.
func (l *Loop) Converged() bool { return l.topSize >= 0 && !l.canSplit }

// Current returns the configuration the next round is measured under.
func (l *Loop) Current() int { return l.current }

// Candidates returns the surviving candidate sources in index order.
// The slice is the loop's own buffer, which the next Fold refills:
// it is valid until then, and callers must not modify it. A caller that
// keeps the list past the next Fold copies it.
func (l *Loop) Candidates() []int { return l.candidates }

// Partition returns the cluster partition; callers must not refine it.
func (l *Loop) Partition() *cluster.Partition { return l.part }

// topVolumeCluster returns the candidate cluster carrying the most
// estimated volume (ties toward the lowest cluster id) and its size, or
// (-1, -1) when no candidate carries volume. It sums per-cluster volume
// into vol's storage and returns it for reuse.
func topVolumeCluster(vol []float64, p *cluster.Partition, candidates []int, estVol []float64) (volByCluster []float64, clusterID, size int) {
	volByCluster = append(vol[:0], make([]float64, p.NumClusters())...)
	for _, k := range candidates {
		if estVol[k] > 0 {
			volByCluster[p.ClusterOf(k)] += estVol[k]
		}
	}
	// Ascending id and a strict comparison are the tie-break.
	best, bestVol := -1, 0.0
	for c, v := range volByCluster {
		if v > bestVol {
			best, bestVol = c, v
		}
	}
	if best == -1 {
		return volByCluster, -1, -1
	}
	for k := 0; k < p.NumSources(); k++ {
		if p.ClusterOf(k) == best {
			size++
		}
	}
	return volByCluster, best, size
}

// splittable reports whether any unused configuration maps the given
// cluster members to more than one ingress link. Quarantined
// configurations count: they are routed around, not consumed, so a
// cluster only they can split is still worth waiting for.
func splittable(catchments [][]bgp.LinkID, used []bool, members []int) bool {
	if len(members) < 2 {
		return false
	}
	for cfg, row := range catchments {
		if used[cfg] {
			continue
		}
		first := row[members[0]]
		for _, k := range members[1:] {
			if row[k] != first {
				return true
			}
		}
	}
	return false
}
