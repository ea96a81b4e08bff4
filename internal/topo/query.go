package topo

import "fmt"

// CustomerCone returns the dense indices of all ASes in the customer cone
// of the AS at index i, including i itself: every AS reachable by
// repeatedly following provider-to-customer links downward. This is the
// definition CAIDA uses to rank transit networks.
func (g *Graph) CustomerCone(i int) []int {
	seen := make(map[int]bool, 16)
	stack := []int{i}
	seen[i] = true
	var cone []int
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cone = append(cone, cur)
		for _, n := range g.adj[cur] {
			if n.Rel == RelCustomer && !seen[n.Idx] {
				seen[n.Idx] = true
				stack = append(stack, n.Idx)
			}
		}
	}
	return cone
}

// CustomerConeSize returns the size of the customer cone of the AS at
// index i (including itself).
func (g *Graph) CustomerConeSize(i int) int { return len(g.CustomerCone(i)) }

// HopDistances returns, for every AS, the minimum AS-hop distance to any
// of the source indices, computed by multi-source BFS over the undirected
// graph (relationships ignored, matching the paper's Fig. 7 which measures
// plain AS-hop distance to the closest PEERING location). Unreachable ASes
// get distance -1.
func (g *Graph) HopDistances(sources []int) []int {
	dist := make([]int, g.NumASes())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, len(sources))
	for _, s := range sources {
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range g.adj[cur] {
			if dist[n.Idx] == -1 {
				dist[n.Idx] = dist[cur] + 1
				queue = append(queue, n.Idx)
			}
		}
	}
	return dist
}

// Connected reports whether the undirected graph is a single connected
// component.
func (g *Graph) Connected() bool {
	if g.NumASes() == 0 {
		return true
	}
	dist := g.HopDistances([]int{0})
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Providers returns the dense indices of the providers of the AS at
// index i.
func (g *Graph) Providers(i int) []int {
	var out []int
	for _, n := range g.adj[i] {
		if n.Rel == RelProvider {
			out = append(out, n.Idx)
		}
	}
	return out
}

// NumCustomers returns the number of customers of the AS at index i. It
// allocates nothing, so rankings can call it inside a sort comparator.
func (g *Graph) NumCustomers(i int) int {
	n := 0
	for _, nb := range g.adj[i] {
		if nb.Rel == RelCustomer {
			n++
		}
	}
	return n
}

// TransitASes returns the indices of all ASes that have at least one
// customer (i.e., provide transit).
func (g *Graph) TransitASes() []int {
	var out []int
	for i := range g.adj {
		for _, n := range g.adj[i] {
			if n.Rel == RelCustomer {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Validate checks structural invariants of the graph: symmetry of
// adjacency with inverted relationships, no self-links, tier-1 ASes have
// no providers, the provider-customer hierarchy is acyclic, and the graph
// is connected. It returns the first violation found.
func (g *Graph) Validate() error {
	for i := range g.adj {
		for _, n := range g.adj[i] {
			if n.Idx == i {
				return fmt.Errorf("topo: AS%d has a self-link", g.asns[i])
			}
			back, ok := g.Rel(n.Idx, i)
			if !ok {
				return fmt.Errorf("topo: asymmetric link AS%d->AS%d", g.asns[i], g.asns[n.Idx])
			}
			if back != n.Rel.Invert() {
				return fmt.Errorf("topo: inconsistent relationship on link AS%d-AS%d", g.asns[i], g.asns[n.Idx])
			}
		}
	}
	for _, t := range g.Tier1s() {
		if len(g.Providers(t)) > 0 {
			return fmt.Errorf("topo: tier-1 AS%d has a provider", g.asns[t])
		}
	}
	if err := g.checkHierarchyAcyclic(); err != nil {
		return err
	}
	if !g.Connected() {
		return fmt.Errorf("topo: graph is not connected")
	}
	return nil
}

// checkHierarchyAcyclic verifies the provider->customer digraph has no
// cycles (a customer cannot transitively be its own provider), using
// Kahn's algorithm on provider->customer edges.
func (g *Graph) checkHierarchyAcyclic() error {
	inDeg := make([]int, g.NumASes()) // number of providers
	for i := range g.adj {
		inDeg[i] = len(g.Providers(i))
	}
	queue := make([]int, 0, g.NumASes())
	for i, d := range inDeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		seen++
		for _, n := range g.adj[cur] {
			if n.Rel == RelCustomer {
				inDeg[n.Idx]--
				if inDeg[n.Idx] == 0 {
					queue = append(queue, n.Idx)
				}
			}
		}
	}
	if seen != g.NumASes() {
		return fmt.Errorf("topo: provider-customer hierarchy has a cycle (%d of %d ASes sorted)", seen, g.NumASes())
	}
	return nil
}
