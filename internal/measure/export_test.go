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

// ASLevelPath is scratch.asLevelPath on a pooled scratch, copied out.
func ASLevelPath(tr Traceroute, g *topo.Graph, mapper addr.Mapper, seqIdx asSeqIndex) []int {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return append([]int(nil), s.asLevelPath(tr.Hops, g, mapper, seqIdx)...)
}

// RepairUnresponsive implements the first repair stage of §IV-b: for each
// run of unresponsive hops surrounded by responsive hops (a ... b), look
// across all traceroutes for responsive hop sequences observed between a
// and b; if exactly one distinct sequence exists, substitute it. Returns
// repaired copies; inputs are not modified.
func RepairUnresponsive(trs []Traceroute) []Traceroute {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.gaps.build(trs)
	out := make([]Traceroute, len(trs))
	for i, tr := range trs {
		out[i] = tr
		out[i].Hops = append([]Hop(nil), s.repairOne(tr.Hops)...)
	}
	return out
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
