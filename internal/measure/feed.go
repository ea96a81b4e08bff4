package measure

import (
	"cmp"
	"fmt"
	"io"
	"net/netip"
	"slices"

	"spooftrack/internal/mrt"
	"spooftrack/internal/topo"
)

// AnnouncedPrefix is the experiment prefix as it appears in collector
// feeds (the /24 containing TargetAddr).
var AnnouncedPrefix = netip.PrefixFrom(netip.MustParseAddr("198.51.100.0"), 24)

// feedNextHop is the next-hop placeholder written into simulated feed
// records; collectors in the simulation do not model next-hop IPs.
var feedNextHop = netip.MustParseAddr("203.0.113.1")

// collectorPath is the AS path one collector selected.
type collectorPath struct {
	collector int
	path      []topo.ASN
}

// slicePaths re-points paths[k].path, keeping each length, at
// consecutive runs of arena.
func slicePaths(paths []collectorPath, arena []topo.ASN) {
	off := 0
	for k := range paths {
		end := off + len(paths[k].path)
		paths[k].path = arena[off:end:end]
		off = end
	}
}

// sortedPaths lists a collector-path map in ascending collector order;
// the paths alias the map's.
func sortedPaths(m map[int][]topo.ASN) []collectorPath {
	paths := make([]collectorPath, 0, len(m))
	for c, p := range m {
		paths = append(paths, collectorPath{collector: c, path: p})
	}
	slices.SortFunc(paths, func(a, b collectorPath) int { return cmp.Compare(a.collector, b.collector) })
	return paths
}

// pathMap copies paths into a map the caller owns, all of them in one
// array; a collector listed twice keeps its later path.
func pathMap(paths []collectorPath) map[int][]topo.ASN {
	n := 0
	for _, p := range paths {
		n += len(p.path)
	}
	arena := make([]topo.ASN, n)
	m := make(map[int][]topo.ASN, len(paths))
	for _, p := range paths {
		k := copy(arena, p.path)
		m[p.collector], arena = arena[:k:k], arena[k:]
	}
	return m
}

// exportPaths writes the paths as an MRT BGP4MP stream, one UPDATE per
// collector in the order given. This is the wire format RouteViews and
// RIS publish.
func exportPaths(w io.Writer, paths []collectorPath, g *topo.Graph, timestamp uint32) error {
	for _, p := range paths {
		u := mrt.Update{
			PeerAS:    g.ASN(p.collector),
			LocalAS:   g.ASN(p.collector),
			Timestamp: timestamp,
			Path:      p.path,
			NextHop:   feedNextHop,
			Prefix:    AnnouncedPrefix,
		}
		if err := mrt.WriteUpdate(w, &u); err != nil {
			return fmt.Errorf("measure: exporting feed for AS%d: %w", g.ASN(p.collector), err)
		}
	}
	return nil
}

// importPaths parses an MRT stream back into collector paths: the
// paths, in stream order, land in s.feedPaths and their ASNs in
// s.feedASNs. Records for other prefixes are skipped; records from peers
// not in the topology are rejected. It returns s.feedPaths.
func (s *scratch) importPaths(r io.Reader, g *topo.Graph) ([]collectorPath, error) {
	s.reader.Reset(r)
	s.feedASNs, s.feedPaths = s.feedASNs[:0], s.feedPaths[:0]
	for {
		u, err := s.reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if u.Prefix != AnnouncedPrefix {
			continue
		}
		idx, ok := g.Index(u.PeerAS)
		if !ok {
			return nil, fmt.Errorf("measure: feed peer AS%d not in topology", u.PeerAS)
		}
		start := len(s.feedASNs)
		s.feedASNs = append(s.feedASNs, u.Path...)
		s.feedPaths = append(s.feedPaths, collectorPath{collector: idx, path: s.feedASNs[start:]})
	}
	slicePaths(s.feedPaths, s.feedASNs)
	return s.feedPaths, nil
}

// RoundTripMRT pushes the observation's BGP paths through the MRT wire
// format and back, replacing them with paths the caller owns. It is the
// round trip Measure runs under the world's WireFeeds option, so
// campaigns exercise the real encode/decode path.
func RoundTripMRT(obs *Observation, g *topo.Graph, timestamp uint32) error {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	paths, err := s.roundTrip(sortedPaths(obs.BGPPaths), g, timestamp)
	if err != nil {
		return err
	}
	obs.BGPPaths = pathMap(paths)
	return nil
}

// roundTrip returns paths as decoded from their own MRT export, in
// s.feedPaths.
func (s *scratch) roundTrip(paths []collectorPath, g *topo.Graph, timestamp uint32) ([]collectorPath, error) {
	s.feed.Reset()
	if err := exportPaths(&s.feed, paths, g, timestamp); err != nil {
		return nil, err
	}
	decoded, err := s.importPaths(&s.feed, g)
	if err != nil {
		return nil, err
	}
	if len(decoded) != len(paths) {
		return nil, fmt.Errorf("measure: feed round-trip lost paths: %d -> %d", len(paths), len(decoded))
	}
	return decoded, nil
}
