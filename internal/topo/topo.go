// Package topo models the AS-level topology of the Internet: autonomous
// systems connected by provider-customer (transit) and peer-peer links,
// following the standard CAIDA AS-relationship model.
//
// The package provides a synthetic Internet generator (gen.go) that builds
// a realistic hierarchy — a tier-1 clique, a transit middle layer with
// preferential attachment and IXP-style peering meshes, and multihomed
// stub networks — plus serialization in the CAIDA AS-relationship format
// (serdes.go) and the graph queries the experiments need: customer cones
// and AS-hop distances (query.go).
//
// Graphs are immutable after Freeze; the BGP engine (package bgp) indexes
// ASes by their dense integer index for speed.
package topo

import (
	"fmt"
	"sort"
)

// ASN is an autonomous system number.
type ASN uint32

// Rel describes the relationship of a neighbor to a given AS, from the
// given AS's point of view.
type Rel int8

const (
	// RelCustomer means the neighbor is a customer of this AS
	// (this AS provides transit to the neighbor).
	RelCustomer Rel = iota
	// RelPeer means the neighbor is a settlement-free peer.
	RelPeer
	// RelProvider means the neighbor is a provider of this AS.
	RelProvider
)

// String returns a short human-readable name for the relationship.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return fmt.Sprintf("Rel(%d)", int8(r))
	}
}

// Invert returns the relationship as seen from the other endpoint.
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// Neighbor is one adjacency of an AS: the dense index of the neighbor AS
// and its relationship to the owning AS.
type Neighbor struct {
	Idx int
	Rel Rel
}

// Graph is an AS-level topology. Build one with NewBuilder (or the
// generator in gen.go), then Freeze it. A frozen Graph is safe for
// concurrent reads.
type Graph struct {
	asns  []ASN       // dense index -> ASN, sorted ascending
	index map[ASN]int // ASN -> dense index
	adj   [][]Neighbor
	tier1 []bool // marked tier-1 ASes (no providers, clique members)
}

// NumASes returns the number of ASes in the graph.
func (g *Graph) NumASes() int { return len(g.asns) }

// ASN returns the AS number at dense index i.
func (g *Graph) ASN(i int) ASN { return g.asns[i] }

// Index returns the dense index of the given ASN.
func (g *Graph) Index(asn ASN) (int, bool) {
	i, ok := g.index[asn]
	return i, ok
}

// MustIndex is Index but panics if the ASN is not in the graph. Use it for
// ASNs that are known to exist by construction.
func (g *Graph) MustIndex(asn ASN) int {
	i, ok := g.index[asn]
	if !ok {
		panic(fmt.Sprintf("topo: AS%d not in graph", asn))
	}
	return i
}

// Neighbors returns the adjacency list of the AS at index i. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(i int) []Neighbor { return g.adj[i] }

// Degree returns the total number of neighbors of the AS at index i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// IsTier1 reports whether the AS at index i was marked tier-1.
func (g *Graph) IsTier1(i int) bool { return g.tier1[i] }

// Tier1s returns the dense indices of all tier-1 ASes.
func (g *Graph) Tier1s() []int {
	var out []int
	for i, t := range g.tier1 {
		if t {
			out = append(out, i)
		}
	}
	return out
}

// Rel returns the relationship of the AS at index j to the AS at index i,
// i.e., how i sees j. The second return is false if i and j are not
// adjacent. Adjacency lists are sorted by neighbor index (Freeze), so
// the lookup is a binary search — Rel sits on the BGP engine's export
// path and high-degree transit ASes made the former linear scan costly.
func (g *Graph) Rel(i, j int) (Rel, bool) {
	adj := g.adj[i]
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid].Idx < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(adj) && adj[lo].Idx == j {
		return adj[lo].Rel, true
	}
	return 0, false
}

// NumLinks returns the number of undirected links in the graph.
func (g *Graph) NumLinks() int {
	total := 0
	for _, ns := range g.adj {
		total += len(ns)
	}
	return total / 2
}

// Builder accumulates ASes and links and produces an immutable Graph.
type Builder struct {
	links map[ASN][]builderEdge
	tier1 map[ASN]bool
	// edges holds every link as an order-independent key so HasLink is
	// O(1) instead of an adjacency-list scan — the generator's IXP phase
	// and provider sampling probe high-degree ASes constantly.
	edges map[edgeKey]bool
}

// edgeKey canonically identifies an undirected link.
type edgeKey struct{ lo, hi ASN }

func newEdgeKey(a, c ASN) edgeKey {
	if a > c {
		a, c = c, a
	}
	return edgeKey{a, c}
}

type builderEdge struct {
	to  ASN
	rel Rel
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{
		links: make(map[ASN][]builderEdge),
		tier1: make(map[ASN]bool),
		edges: make(map[edgeKey]bool),
	}
}

// AddAS ensures an AS exists even if it has no links yet.
func (b *Builder) AddAS(asn ASN) {
	if _, ok := b.links[asn]; !ok {
		b.links[asn] = nil
	}
}

// MarkTier1 flags an AS as tier-1 (added if absent).
func (b *Builder) MarkTier1(asn ASN) {
	b.AddAS(asn)
	b.tier1[asn] = true
}

// AddP2C adds a provider-to-customer link. It returns an error if the link
// already exists (with any relationship) or if provider == customer.
func (b *Builder) AddP2C(provider, customer ASN) error {
	return b.add(provider, customer, RelCustomer)
}

// AddP2P adds a peer-to-peer link. It returns an error if the link already
// exists or if a == b.
func (b *Builder) AddP2P(a, c ASN) error {
	return b.add(a, c, RelPeer)
}

func (b *Builder) add(from, to ASN, relOfTo Rel) error {
	if from == to {
		return fmt.Errorf("topo: self-link on AS%d", from)
	}
	if b.HasLink(from, to) {
		return fmt.Errorf("topo: duplicate link AS%d-AS%d", from, to)
	}
	b.AddAS(from)
	b.AddAS(to)
	b.links[from] = append(b.links[from], builderEdge{to: to, rel: relOfTo})
	b.links[to] = append(b.links[to], builderEdge{to: from, rel: relOfTo.Invert()})
	b.edges[newEdgeKey(from, to)] = true
	return nil
}

// HasLink reports whether a link between the two ASes exists.
func (b *Builder) HasLink(a, c ASN) bool {
	return b.edges[newEdgeKey(a, c)]
}

// Freeze produces the immutable Graph. Adjacency lists are sorted by
// neighbor index for deterministic iteration.
func (b *Builder) Freeze() *Graph {
	asns := make([]ASN, 0, len(b.links))
	for asn := range b.links {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	index := make(map[ASN]int, len(asns))
	for i, asn := range asns {
		index[asn] = i
	}
	g := &Graph{
		asns:  asns,
		index: index,
		adj:   make([][]Neighbor, len(asns)),
		tier1: make([]bool, len(asns)),
	}
	for asn, edges := range b.links {
		i := index[asn]
		ns := make([]Neighbor, len(edges))
		for k, e := range edges {
			ns[k] = Neighbor{Idx: index[e.to], Rel: e.rel}
		}
		sort.Slice(ns, func(a, c int) bool { return ns[a].Idx < ns[c].Idx })
		g.adj[i] = ns
	}
	for asn := range b.tier1 {
		g.tier1[index[asn]] = true
	}
	return g
}
