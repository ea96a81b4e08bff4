package measure

import (
	"bytes"
	"fmt"
	"sync"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/mrt"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// scratch is the working memory of one configuration's collect → feed
// round trip → repair → infer pass (DESIGN.md §5.10). Everything the pass
// builds on the way to its result lives here and is reused by the next
// configuration, so a warm pass allocates only what it returns. Every
// field is reset by the step that fills it, bar resolve's state words,
// which it leaves all zero; nothing is read across configurations.
type scratch struct {
	// asns is the arena holding every collector path of the
	// configuration back to back; paths[k].path slices into it.
	asns  []topo.ASN
	paths []collectorPath
	// feed is the collector paths' MRT export, reader decodes it, and
	// feedASNs and feedPaths hold what it decodes as asns and paths do.
	feed      bytes.Buffer
	reader    mrt.Reader
	feedASNs  []topo.ASN
	feedPaths []collectorPath

	// hops is the arena holding every hop of the configuration's
	// traceroutes back to back; trs[k].Hops slices into it.
	hops []Hop
	trs  []Traceroute
	// path is the data path of the probe being synthesized.
	path []int

	gaps gapIndex
	seqs asSeqIndex

	// asPath is the AS-level path of the traceroute being mapped.
	asPath []int

	// evidence lists the (AS, link) observations in arrival order;
	// resolve keeps a state word per AS (state, all zero outside a
	// pass, one entry per AS of the largest world measured), the ASes
	// with evidence (touched) and a tally row per AS with conflicting
	// evidence (counts).
	evidence []vote
	state    []int32
	touched  []int32
	counts   []int32
}

// scratchPool hands a scratch to each concurrent measurement. It is
// package state on purpose: a scratch reachable from a World or a
// Campaign would stay resident for as long as they do (the hop arena
// holds every hop of a configuration's traceroutes), while the pool lets
// the collector free it once the measure phase is over.
var scratchPool = sync.Pool{New: func() any { return newScratch() }}

func newScratch() *scratch {
	return &scratch{seqs: make(asSeqIndex)}
}

// Measure runs one configuration's whole §IV-b/c measurement on a single
// scratch: Collect, then — with wireFeeds — the collector paths' round
// trip through the MRT codec stamped feedTime, then inference. It
// returns exactly what Collect, the feed round trip and inference
// chained step by step would.
func Measure(out *bgp.Outcome, v VantageSet, space *addr.Space, noise NoiseParams, rng *stats.RNG, in InferInput, wireFeeds bool, feedTime uint32) (*CatchmentMeasurement, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.measure(out, v, space, noise, rng, in, wireFeeds, feedTime)
}

func (s *scratch) measure(out *bgp.Outcome, v VantageSet, space *addr.Space, noise NoiseParams, rng *stats.RNG, in InferInput, wireFeeds bool, feedTime uint32) (*CatchmentMeasurement, error) {
	paths := s.collect(out, v, space, noise, rng)
	if wireFeeds {
		var err error
		if paths, err = s.roundTrip(paths, in.Graph, feedTime); err != nil {
			return nil, fmt.Errorf("feed round-trip: %w", err)
		}
	}
	return s.infer(paths, s.trs, in), nil
}
