package measure

import (
	"fmt"
	"sync"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// scratch is the working memory of one configuration's collect → repair
// → infer pass (DESIGN.md §5.10). Everything the pass builds on the way
// to its result lives here and is reused by the next configuration, so a
// warm pass allocates only what it returns. Every field is reset by the
// step that fills it; nothing is read across configurations.
type scratch struct {
	// hops is the arena holding every hop of the configuration's
	// traceroutes back to back; trs[k].Hops slices into it.
	hops []Hop
	trs  []Traceroute
	// path is the data path of the probe being synthesized.
	path []int

	gaps gapIndex
	seqs asSeqIndex

	// repaired is the traceroute being mapped, after gap repair.
	repaired []Hop
	// mapped, collapsed and asPath are ASLevelPath's three stages.
	mapped, collapsed, asPath []int

	// evidence lists the (AS, link) observations in arrival order;
	// counts is the dense table they are tallied into.
	evidence []vote
	counts   []int32
}

// scratchPool hands a scratch to each concurrent measurement. It is
// package state on purpose: a scratch reachable from a World or a
// Campaign would stay resident for as long as they do (the gap index
// alone is megabytes), while the pool lets the collector free it once
// the measure phase is over.
var scratchPool = sync.Pool{New: func() any { return newScratch() }}

func newScratch() *scratch {
	return &scratch{gaps: make(gapIndex), seqs: make(asSeqIndex)}
}

// Measure runs one configuration's whole §IV-b/c measurement on a single
// scratch: Collect, then — with wireFeeds — the collector paths' round
// trip through the MRT codec stamped feedTime, then Infer. It returns
// exactly what the three exported steps chained would.
func Measure(out *bgp.Outcome, v VantageSet, space *addr.Space, noise NoiseParams, rng *stats.RNG, in InferInput, wireFeeds bool, feedTime uint32) (*CatchmentMeasurement, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.measure(out, v, space, noise, rng, in, wireFeeds, feedTime)
}

func (s *scratch) measure(out *bgp.Outcome, v VantageSet, space *addr.Space, noise NoiseParams, rng *stats.RNG, in InferInput, wireFeeds bool, feedTime uint32) (*CatchmentMeasurement, error) {
	paths := s.collect(out, v, space, noise, rng)
	if wireFeeds {
		var err error
		if paths, err = roundTripPaths(paths, in.Graph, feedTime); err != nil {
			return nil, fmt.Errorf("feed round-trip: %w", err)
		}
	}
	return s.infer(paths, s.trs, in), nil
}
