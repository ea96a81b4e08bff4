package measure

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sort"

	"spooftrack/internal/mrt"
	"spooftrack/internal/topo"
)

// AnnouncedPrefix is the experiment prefix as it appears in collector
// feeds (the /24 containing TargetAddr).
var AnnouncedPrefix = netip.PrefixFrom(netip.MustParseAddr("198.51.100.0"), 24)

// feedNextHop is the next-hop placeholder written into simulated feed
// records; collectors in the simulation do not model next-hop IPs.
var feedNextHop = netip.MustParseAddr("203.0.113.1")

// feedRecordOverhead bounds what one exported record takes on top of
// four bytes per path ASN (MRT, BGP4MP and UPDATE framing, the other
// attributes and the /24 NLRI come to 75); it only sizes a buffer.
const feedRecordOverhead = 80

// ExportMRT serializes the observation's collector paths as an MRT
// BGP4MP stream, one UPDATE per collector, in ascending collector order
// (deterministic output). This is the wire format RouteViews and RIS
// publish, so downstream tooling can consume simulated feeds directly.
func ExportMRT(w io.Writer, obs Observation, g *topo.Graph, timestamp uint32) error {
	collectors := make([]int, 0, len(obs.BGPPaths))
	for c := range obs.BGPPaths {
		collectors = append(collectors, c)
	}
	sort.Ints(collectors)
	for _, c := range collectors {
		u := &mrt.Update{
			PeerAS:    g.ASN(c),
			LocalAS:   g.ASN(c),
			Timestamp: timestamp,
			Path:      obs.BGPPaths[c],
			NextHop:   feedNextHop,
			Prefix:    AnnouncedPrefix,
		}
		if err := mrt.WriteUpdate(w, u); err != nil {
			return fmt.Errorf("measure: exporting feed for AS%d: %w", g.ASN(c), err)
		}
	}
	return nil
}

// ImportMRT parses an MRT stream back into the per-collector path map
// Infer consumes. Records for other prefixes are skipped; records from
// peers not in the topology are rejected.
func ImportMRT(r io.Reader, g *topo.Graph) (map[int][]topo.ASN, error) {
	updates, err := mrt.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[int][]topo.ASN, len(updates))
	for _, u := range updates {
		if u.Prefix != AnnouncedPrefix {
			continue
		}
		idx, ok := g.Index(u.PeerAS)
		if !ok {
			return nil, fmt.Errorf("measure: feed peer AS%d not in topology", u.PeerAS)
		}
		out[idx] = u.Path
	}
	return out, nil
}

// RoundTripMRT pushes the observation's BGP paths through the MRT wire
// format and back, replacing them in place. Enabled by the world's
// WireFeeds option so campaigns exercise the real encode/decode path.
func RoundTripMRT(obs *Observation, g *topo.Graph, timestamp uint32) error {
	paths, err := roundTripPaths(obs.BGPPaths, g, timestamp)
	if err != nil {
		return err
	}
	obs.BGPPaths = paths
	return nil
}

// roundTripPaths returns paths as decoded from their own MRT export.
func roundTripPaths(paths map[int][]topo.ASN, g *topo.Graph, timestamp uint32) (map[int][]topo.ASN, error) {
	size := 0
	for _, p := range paths {
		size += feedRecordOverhead + 4*len(p)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if err := ExportMRT(buf, Observation{BGPPaths: paths}, g, timestamp); err != nil {
		return nil, err
	}
	decoded, err := ImportMRT(buf, g)
	if err != nil {
		return nil, err
	}
	if len(decoded) != len(paths) {
		return nil, fmt.Errorf("measure: feed round-trip lost paths: %d -> %d", len(paths), len(decoded))
	}
	return decoded, nil
}
