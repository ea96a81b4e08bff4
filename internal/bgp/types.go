// Package bgp implements an inter-domain policy-routing engine over an
// AS-level topology (package topo).
//
// The engine models the BGP decision process the paper manipulates
// (§II): LocalPref set from business relationships per the Gao-Rexford
// model (customer > peer > provider), then shortest AS-path, then a
// deterministic per-AS tiebreak standing in for IGP cost / MED / age.
// Export follows valley-free rules: routes learned from customers are
// exported to everyone, routes learned from peers or providers only to
// customers.
//
// An origin AS (external to the topology, like PEERING's AS47065)
// announces a prefix through a subset of its peering links — an
// announcement configuration c = ⟨A; P; Q⟩ (§III): A the set of links
// announced from, P the links with AS-path prepending, and Q per-link
// poisoned-AS sets. Poisoning embeds the target ASN in the announced
// AS-path (wrapped in the origin's own ASN, as PEERING requires), which
// triggers loop prevention at the target; prepending lengthens the path
// to lose length-based ties.
//
// Realism knobs reproduce the paper's observations that not all ASes
// follow the textbook policy (Fig. 9) and that poisoning is best-effort
// (§III-A-c): a seeded fraction of ASes pin LocalPref to one neighbor, a
// fraction disable loop prevention (immune to poisoning), and tier-1 ASes
// can filter customer-learned routes whose AS-path contains another
// tier-1 (route-leak heuristic).
package bgp

import (
	"fmt"
	"sort"
	"strings"

	"spooftrack/internal/topo"
)

// LinkID identifies one peering link of the origin AS. IDs are dense
// indices into Origin.Links. One byte is enough — the paper's origin has
// 7 links and the amp wire format already carries the link in one — and
// it keeps a catchment cell, of which a campaign holds sources ×
// configurations, at a byte (DESIGN.md §5.11).
type LinkID int8

// MaxLinks is the most peering links an origin can have: every link id
// must fit a LinkID. Anything that turns an outside number into a
// LinkID checks it against MaxLinks first, so an id that does not fit
// fails instead of wrapping.
const MaxLinks = 127

// NoLink is the LinkID reported for ASes with no route to the prefix.
const NoLink LinkID = -1

// Link is a peering link between the origin AS and one of its transit
// providers.
type Link struct {
	// Name is a human-readable label (e.g., the PEERING mux name).
	Name string
	// Provider is the dense topo index of the provider AS on this link.
	Provider int
}

// Origin describes the announcing AS: its ASN (not part of the topology
// graph) and its peering links.
type Origin struct {
	ASN   topo.ASN
	Links []Link
}

// Announcement is the prefix announcement made on a single peering link
// as part of a configuration.
type Announcement struct {
	// Link is the peering link the announcement is made through.
	Link LinkID
	// Prepend is the number of extra times the origin prepends its own
	// ASN (0 = no prepending; the paper uses 4, longer than most
	// Internet AS-paths).
	Prepend int
	// Poison lists the ASes poisoned on this announcement. Each poisoned
	// ASN is embedded in the AS-path wrapped in the origin's ASN.
	Poison []topo.ASN
	// Communities are action communities attached to the announcement
	// (§VIII future work). Only ASes that honor communities act on them;
	// remote prepending requested via ActPrependTo affects decision
	// lengths at receivers but, like real prepending applied mid-path,
	// is not reconstructed into reported AS-paths by the simulator.
	Communities []Community
}

// PathLen returns the length contribution of the announcement's initial
// AS-path: one origin ASN, plus prepends, plus two per poisoned AS
// (poison + origin sentinel).
func (a Announcement) PathLen() int {
	return 1 + a.Prepend + 2*len(a.Poison)
}

// InitialPath materializes the AS-path as announced by the origin:
// origin^(1+prepend) then (poison, origin) per poisoned AS, matching
// PEERING's sentinel-wrapping requirement.
func (a Announcement) InitialPath(origin topo.ASN) []topo.ASN {
	return a.appendInitialPath(make([]topo.ASN, 0, a.PathLen()), origin)
}

// appendInitialPath appends InitialPath(origin) to path.
func (a Announcement) appendInitialPath(path []topo.ASN, origin topo.ASN) []topo.ASN {
	for i := 0; i <= a.Prepend; i++ {
		path = append(path, origin)
	}
	for _, p := range a.Poison {
		path = append(path, p, origin)
	}
	return path
}

// Config is an announcement configuration c = ⟨A; P; Q⟩: the set of
// announcements active at one time, at most one per peering link.
type Config struct {
	Anns []Announcement
}

// Validate checks the configuration against the origin: links in range,
// no duplicate links, non-negative prepending, and at least one
// announcement.
func (c Config) Validate(o Origin) error {
	if len(c.Anns) == 0 {
		return fmt.Errorf("bgp: configuration announces from no links")
	}
	// Duplicate detection by pairwise scan: configurations hold at most
	// one announcement per peering link (a handful), and Validate runs on
	// every Propagate, so this stays allocation-free on the hot path.
	for i, a := range c.Anns {
		if a.Link < 0 || int(a.Link) >= len(o.Links) {
			return fmt.Errorf("bgp: link %d out of range (origin has %d links)", a.Link, len(o.Links))
		}
		for _, prev := range c.Anns[:i] {
			if prev.Link == a.Link {
				return fmt.Errorf("bgp: duplicate announcement on link %d", a.Link)
			}
		}
		if a.Prepend < 0 {
			return fmt.Errorf("bgp: negative prepend on link %d", a.Link)
		}
		for _, p := range a.Poison {
			if p == o.ASN {
				return fmt.Errorf("bgp: cannot poison the origin's own ASN on link %d", a.Link)
			}
		}
		for _, c := range a.Communities {
			if c.Action != ActNoExportTo && c.Action != ActPrependTo {
				return fmt.Errorf("bgp: unknown community action %d on link %d", c.Action, a.Link)
			}
			if c.Operator == 0 || c.Target == 0 {
				return fmt.Errorf("bgp: community %v on link %d has empty operator or target", c, a.Link)
			}
		}
	}
	return nil
}

// Key returns a canonical identity string for the configuration:
// announcements ordered by link, each with its prepend count, poison
// list, and communities verbatim. Two configurations with equal keys
// produce identical routing outcomes (poison and community order is
// preserved because it shapes reported AS-paths). Outcome caches key on
// this.
func (c Config) Key() string {
	idx := make([]int, len(c.Anns))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return c.Anns[idx[a]].Link < c.Anns[idx[b]].Link })
	var sb strings.Builder
	sb.Grow(16 * len(c.Anns))
	for _, i := range idx {
		a := c.Anns[i]
		fmt.Fprintf(&sb, "%d:%d", int(a.Link), a.Prepend)
		for _, p := range a.Poison {
			fmt.Fprintf(&sb, ",q%d", uint32(p))
		}
		for _, cm := range a.Communities {
			fmt.Fprintf(&sb, ",c%d.%d.%d", uint32(cm.Operator), uint8(cm.Action), uint32(cm.Target))
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

// String renders the configuration compactly, e.g.
// "⟨A={0,2}; P={0}; Q={2:[64512]}⟩".
func (c Config) String() string {
	var aSet, pSet, qSet []string
	for _, a := range c.Anns {
		aSet = append(aSet, fmt.Sprint(int(a.Link)))
		if a.Prepend > 0 {
			pSet = append(pSet, fmt.Sprint(int(a.Link)))
		}
		if len(a.Poison) > 0 {
			qSet = append(qSet, fmt.Sprintf("%d:%v", int(a.Link), a.Poison))
		}
	}
	return fmt.Sprintf("⟨A={%s}; P={%s}; Q={%s}⟩",
		join(aSet), join(pSet), join(qSet))
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
