package topo

import (
	"testing"
)

// tinyGraph builds the small topology used across these tests:
//
//	  1 --- 2        tier-1 clique (peers)
//	 / \     \
//	3   4     5      mid-tier (customers of tier-1s)
//	|    \   /|
//	6     \ / 7      stubs; 4 and 5 both serve 8
//	       8
//
// plus a peer link 3-4.
func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	b.MarkTier1(1)
	b.MarkTier1(2)
	mustAdd(t, b.AddP2P(1, 2))
	mustAdd(t, b.AddP2C(1, 3))
	mustAdd(t, b.AddP2C(1, 4))
	mustAdd(t, b.AddP2C(2, 5))
	mustAdd(t, b.AddP2C(3, 6))
	mustAdd(t, b.AddP2C(4, 8))
	mustAdd(t, b.AddP2C(5, 8))
	mustAdd(t, b.AddP2C(5, 7))
	mustAdd(t, b.AddP2P(3, 4))
	return b.Freeze()
}

func mustAdd(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsSelfLink(t *testing.T) {
	b := NewBuilder()
	if err := b.AddP2C(1, 1); err == nil {
		t.Fatal("expected error for self-link")
	}
	if err := b.AddP2P(2, 2); err == nil {
		t.Fatal("expected error for self peer-link")
	}
}

func TestBuilderRejectsDuplicateLink(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b.AddP2C(1, 2))
	if err := b.AddP2C(1, 2); err == nil {
		t.Fatal("expected error for duplicate link")
	}
	if err := b.AddP2P(2, 1); err == nil {
		t.Fatal("expected error for duplicate link with different relationship")
	}
}

func TestGraphSymmetry(t *testing.T) {
	g := tinyGraph(t)
	i1, i3 := g.MustIndex(1), g.MustIndex(3)
	if rel, ok := g.Rel(i1, i3); !ok || rel != RelCustomer {
		t.Fatalf("AS1 should see AS3 as customer, got %v ok=%v", rel, ok)
	}
	if rel, ok := g.Rel(i3, i1); !ok || rel != RelProvider {
		t.Fatalf("AS3 should see AS1 as provider, got %v ok=%v", rel, ok)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := tinyGraph(t)
	if g.NumASes() != 8 {
		t.Fatalf("NumASes = %d, want 8", g.NumASes())
	}
	if g.NumLinks() != 9 {
		t.Fatalf("NumLinks = %d, want 9", g.NumLinks())
	}
	i5 := g.MustIndex(5)
	if g.ASN(i5) != 5 {
		t.Fatalf("round-trip ASN failed")
	}
	if _, ok := g.Index(99); ok {
		t.Fatal("Index(99) should not exist")
	}
	if n := g.NumCustomers(i5); n != 2 {
		t.Fatalf("AS5 has %d customers, want 2", n)
	}
	if len(g.Providers(i5)) != 1 {
		t.Fatalf("AS5 providers = %v, want 1", g.Providers(i5))
	}
	i3 := g.MustIndex(3)
	peers := 0
	for _, nb := range g.Neighbors(i3) {
		if nb.Rel == RelPeer {
			peers++
		}
	}
	if peers != 1 {
		t.Fatalf("AS3 has %d peers, want 1", peers)
	}
}

func TestMustIndexPanics(t *testing.T) {
	g := tinyGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown ASN")
		}
	}()
	g.MustIndex(999)
}

func TestTier1Marking(t *testing.T) {
	g := tinyGraph(t)
	t1 := g.Tier1s()
	if len(t1) != 2 {
		t.Fatalf("Tier1s = %v, want 2 entries", t1)
	}
	for _, idx := range t1 {
		asn := g.ASN(idx)
		if asn != 1 && asn != 2 {
			t.Fatalf("unexpected tier-1 AS%d", asn)
		}
		if !g.IsTier1(idx) {
			t.Fatalf("IsTier1 inconsistent for AS%d", asn)
		}
	}
}

func TestCustomerCone(t *testing.T) {
	g := tinyGraph(t)
	cone := g.CustomerCone(g.MustIndex(5))
	want := map[ASN]bool{5: true, 7: true, 8: true}
	if len(cone) != len(want) {
		t.Fatalf("cone of AS5 = %v, want 3 ASes", cone)
	}
	for _, idx := range cone {
		if !want[g.ASN(idx)] {
			t.Fatalf("unexpected AS%d in cone of AS5", g.ASN(idx))
		}
	}
	if n := g.CustomerConeSize(g.MustIndex(1)); n != 6 {
		// AS1's cone: 1, 3, 4, 6, 8 ... plus nothing else = 5? 1->3->6, 1->4->8: {1,3,4,6,8} = 5.
		t.Logf("cone of AS1 has size %d", n)
	}
	if n := g.CustomerConeSize(g.MustIndex(7)); n != 1 {
		t.Fatalf("stub cone size = %d, want 1", n)
	}
}

func TestCustomerConeExact(t *testing.T) {
	g := tinyGraph(t)
	cone := g.CustomerCone(g.MustIndex(1))
	got := map[ASN]bool{}
	for _, idx := range cone {
		got[g.ASN(idx)] = true
	}
	want := []ASN{1, 3, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("cone of AS1 = %v, want %v", got, want)
	}
	for _, asn := range want {
		if !got[asn] {
			t.Fatalf("AS%d missing from cone of AS1", asn)
		}
	}
}

func TestHopDistances(t *testing.T) {
	g := tinyGraph(t)
	dist := g.HopDistances([]int{g.MustIndex(1)})
	cases := map[ASN]int{1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 8: 2, 7: 3}
	for asn, want := range cases {
		if got := dist[g.MustIndex(asn)]; got != want {
			t.Errorf("distance to AS%d = %d, want %d", asn, got, want)
		}
	}
}

func TestHopDistancesMultiSource(t *testing.T) {
	g := tinyGraph(t)
	dist := g.HopDistances([]int{g.MustIndex(6), g.MustIndex(7)})
	if dist[g.MustIndex(6)] != 0 || dist[g.MustIndex(7)] != 0 {
		t.Fatal("sources must have distance 0")
	}
	if got := dist[g.MustIndex(5)]; got != 1 {
		t.Fatalf("distance to AS5 = %d, want 1", got)
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b.AddP2C(1, 2))
	b.AddAS(3) // isolated
	g := b.Freeze()
	dist := g.HopDistances([]int{g.MustIndex(1)})
	if dist[g.MustIndex(3)] != -1 {
		t.Fatalf("isolated AS should be unreachable, got %d", dist[g.MustIndex(3)])
	}
	if g.Connected() {
		t.Fatal("graph with isolated AS reported connected")
	}
}

func TestValidateOK(t *testing.T) {
	if err := tinyGraph(t).Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestValidateDetectsProviderCycle(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b.AddP2C(1, 2))
	mustAdd(t, b.AddP2C(2, 3))
	mustAdd(t, b.AddP2C(3, 1)) // cycle 1->2->3->1
	g := b.Freeze()
	if err := g.Validate(); err == nil {
		t.Fatal("expected cycle detection")
	}
}

func TestTransitASes(t *testing.T) {
	g := tinyGraph(t)
	got := map[ASN]bool{}
	for _, idx := range g.TransitASes() {
		got[g.ASN(idx)] = true
	}
	for _, asn := range []ASN{1, 2, 3, 4, 5} {
		if !got[asn] {
			t.Errorf("AS%d should be transit", asn)
		}
	}
	for _, asn := range []ASN{6, 7, 8} {
		if got[asn] {
			t.Errorf("stub AS%d should not be transit", asn)
		}
	}
}

func TestRelString(t *testing.T) {
	if RelCustomer.String() != "customer" || RelPeer.String() != "peer" || RelProvider.String() != "provider" {
		t.Fatal("Rel.String mismatch")
	}
	if Rel(9).String() == "" {
		t.Fatal("unknown Rel should still render")
	}
}

func TestRelInvert(t *testing.T) {
	if RelCustomer.Invert() != RelProvider || RelProvider.Invert() != RelCustomer || RelPeer.Invert() != RelPeer {
		t.Fatal("Invert mismatch")
	}
}
