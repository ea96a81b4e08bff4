package spoof

import (
	"fmt"

	"spooftrack/internal/bgp"
)

// IncrementalLocalizer maintains the Localize / LocalizeTolerant
// candidate set online, one configuration round at a time, in
// O(sources) per round and O(sources) memory — the shape a long-running
// attribution daemon needs, where rounds arrive as the origin cycles
// configurations during an attack and the full volume history is never
// materialized.
type IncrementalLocalizer struct {
	misses []int
}

// NewIncrementalLocalizer tracks nSources sources with no rounds
// observed yet (every source is a candidate).
func NewIncrementalLocalizer(nSources int) *IncrementalLocalizer {
	return &IncrementalLocalizer{misses: make([]int, nSources)}
}

// AddRound folds in one configuration round: catchment[k] is source k's
// catchment under the deployed configuration, volumes[l] the spoofed
// volume measured on link l during the round. A source whose known
// catchment link carried no traffic accrues a miss; unknown catchments
// (bgp.NoLink) never eliminate, exactly as in Localize.
func (il *IncrementalLocalizer) AddRound(catchment []bgp.LinkID, volumes []float64) {
	if len(catchment) != len(il.misses) {
		panic(fmt.Sprintf("spoof: %d catchments for %d sources", len(catchment), len(il.misses)))
	}
	const eps = 1e-12
	for k, l := range catchment {
		if l == bgp.NoLink {
			continue
		}
		if int(l) >= len(volumes) || volumes[l] <= eps {
			il.misses[k]++
		}
	}
}

// Candidates returns the sources with at most maxMisses misses, in
// index order — LocalizeTolerant's answer over all rounds so far
// (maxMisses = 0 matches Localize exactly). It is a fresh slice, sized
// exactly, and nil when no source qualifies.
func (il *IncrementalLocalizer) Candidates(maxMisses int) []int {
	n := 0
	for _, m := range il.misses {
		if m <= maxMisses {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return il.AppendCandidates(make([]int, 0, n), maxMisses)
}

// AppendCandidates appends Candidates(maxMisses) to dst and returns the
// extended slice, so a caller that refolds every round can refill one
// buffer instead of allocating a list per round.
func (il *IncrementalLocalizer) AppendCandidates(dst []int, maxMisses int) []int {
	for k, m := range il.misses {
		if m <= maxMisses {
			dst = append(dst, k)
		}
	}
	return dst
}
