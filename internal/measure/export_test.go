package measure

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

import (
	"io"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// Infer is scratch.infer on a pooled scratch.
func Infer(obs Observation, in InferInput) *CatchmentMeasurement {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.infer(sortedPaths(obs.BGPPaths), obs.Traceroutes, in)
}

// newASSeqIndex builds an index over the collector paths.
func newASSeqIndex(paths map[int][]topo.ASN, origin topo.ASN) asSeqIndex {
	idx := make(asSeqIndex)
	idx.build(sortedPaths(paths), origin)
	return idx
}

// ASLevelPath is scratch.asLevelPath on a pooled scratch, with the gap
// index built from tr alone, copied out.
func ASLevelPath(tr Traceroute, g *topo.Graph, mapper addr.Mapper, seqIdx asSeqIndex) []int {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.gaps.build([]Traceroute{tr})
	return append([]int(nil), s.asLevelPath(tr.Hops, g, mapper, seqIdx)...)
}

// RepairUnresponsive implements the first repair stage of §IV-b: for each
// run of unresponsive hops surrounded by responsive hops (a ... b), look
// across all traceroutes for responsive hop sequences observed between a
// and b; if exactly one distinct sequence exists, substitute it. Returns
// repaired copies; inputs are not modified. It emits the hops asLevelPath
// maps: the runs gapIndex.fill repairs, every other hop as it was.
func RepairUnresponsive(trs []Traceroute) []Traceroute {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.gaps.build(trs)
	out := make([]Traceroute, len(trs))
	for k, tr := range trs {
		out[k] = tr
		var hops []Hop
		h := tr.Hops
		for i := 0; i < len(h); {
			if h[i].Responsive() {
				hops = append(hops, h[i])
				i++
				continue
			}
			j := i + 1
			for j < len(h) && !h[j].Responsive() {
				j++
			}
			if v, ok := s.gaps.fill(h, i, j); ok {
				hops = append(hops, v.seq[:v.n]...)
			} else {
				hops = append(hops, h[i:j]...)
			}
			i = j
		}
		out[k].Hops = hops
	}
	return out
}

// pairCount returns the number of pairs registered in the index.
func (idx *gapIndex) pairCount() int {
	n := 0
	for _, key := range idx.keys {
		if key != 0 {
			n++
		}
	}
	return n
}

// SynthesizeTraceroute builds the traceroute a probe in AS probe would
// observe under the routing outcome: two interface hops per transit AS
// (ingress and egress routers), IXP segments at some AS boundaries, and
// unresponsive hops. Returns ok=false when the probe measurement is lost
// entirely or the probe has no route.
func SynthesizeTraceroute(out *bgp.Outcome, space *addr.Space, probe int, noise NoiseParams, rng *stats.RNG) (Traceroute, bool) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.hops = s.hops[:0]
	reached, ok := s.synthesize(out, space, probe, noise, rng)
	if !ok {
		return Traceroute{}, false
	}
	tr := Traceroute{ProbeAS: probe, Reached: reached}
	if reached {
		tr.Hops = append([]Hop(nil), s.hops...)
	}
	return tr, true
}

// ExportMRT is exportPaths over the observation's collector paths in
// ascending collector order (deterministic output).
func ExportMRT(w io.Writer, obs Observation, g *topo.Graph, timestamp uint32) error {
	return exportPaths(w, sortedPaths(obs.BGPPaths), g, timestamp)
}

// ImportMRT is scratch.importPaths on a pooled scratch, copied out into
// a per-collector path map.
func ImportMRT(r io.Reader, g *topo.Graph) (map[int][]topo.ASN, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	paths, err := s.importPaths(r, g)
	if err != nil {
		return nil, err
	}
	return pathMap(paths), nil
}
