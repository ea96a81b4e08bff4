package bgp

import (
	"fmt"

	"spooftrack/internal/topo"
)

// BGP action communities (§VIII future work: "using BGP communities for
// controlling export policies (and influence routing decisions) on
// remote networks"). Many transit providers let customers tag routes
// with provider-defined communities that alter export behaviour — most
// commonly "do not export this route to neighbor X". Unlike poisoning,
// this does not rely on loop prevention (so poison-ignoring ASes are
// still steerable) and does not trip route-leak filters; unlike
// poisoning it only works at providers that implement action
// communities.

// CommunityAction is the operation a community requests.
type CommunityAction uint8

const (
	// ActNoExportTo asks the operator AS not to export the route to a
	// specific neighbor.
	ActNoExportTo CommunityAction = 1
	// ActPrependTo asks the operator AS to prepend its own ASN three
	// times when exporting to a specific neighbor (remote prepending).
	ActPrependTo CommunityAction = 2
)

// remotePrependDepth is how many ASNs ActPrependTo adds at the operator.
const remotePrependDepth = 3

// String names the action.
func (a CommunityAction) String() string {
	switch a {
	case ActNoExportTo:
		return "no-export-to"
	case ActPrependTo:
		return "prepend-to"
	default:
		return fmt.Sprintf("CommunityAction(%d)", uint8(a))
	}
}

// Community is one action community attached to an announcement:
// "operator, when handling this route, apply action toward target".
type Community struct {
	// Operator is the AS expected to act on the community.
	Operator topo.ASN
	// Action is the requested operation.
	Action CommunityAction
	// Target is the operator's neighbor the action applies to.
	Target topo.ASN
}

// String renders the community like provider documentation does.
func (c Community) String() string {
	return fmt.Sprintf("%d:%s:%d", c.Operator, c.Action, c.Target)
}

// communityTables precomputes, per announcement, the (operator, target)
// pairs for each action. The zero value (nil maps) is valid and means no
// announcement carries communities; the propagation hot path checks the
// context's anyComm flag once per offer and skips all community lookups
// for the common community-free configuration.
type communityTables struct {
	noExport map[int]map[[2]topo.ASN]bool
	prepend  map[int]map[[2]topo.ASN]bool
}

func buildCommunityTables(cfg Config) communityTables {
	t := communityTables{
		noExport: make(map[int]map[[2]topo.ASN]bool),
		prepend:  make(map[int]map[[2]topo.ASN]bool),
	}
	for ai, a := range cfg.Anns {
		for _, c := range a.Communities {
			var dst map[int]map[[2]topo.ASN]bool
			switch c.Action {
			case ActNoExportTo:
				dst = t.noExport
			case ActPrependTo:
				dst = t.prepend
			default:
				continue
			}
			m, ok := dst[ai]
			if !ok {
				m = make(map[[2]topo.ASN]bool)
				dst[ai] = m
			}
			m[[2]topo.ASN{c.Operator, c.Target}] = true
		}
	}
	return t
}

// has reports whether announcement ai carries the action for
// (operator, target).
func hasCommunity(m map[int]map[[2]topo.ASN]bool, ai int, operator, target topo.ASN) bool {
	inner, ok := m[ai]
	if !ok {
		return false
	}
	return inner[[2]topo.ASN{operator, target}]
}
