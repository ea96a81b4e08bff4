package topo

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// graphChecksum digests a graph's full structure — every edge with its
// relationship plus the tier-1 set — into a single FNV-1a value. Used to
// pin the generator's output across refactors of its internals.
func graphChecksum(g *Graph) uint64 {
	h := fnv.New64a()
	type edge struct {
		a, b ASN
		rel  int8
	}
	var edges []edge
	for i := 0; i < g.NumASes(); i++ {
		for _, n := range g.Neighbors(i) {
			if g.ASN(i) < g.ASN(n.Idx) {
				edges = append(edges, edge{g.ASN(i), g.ASN(n.Idx), int8(n.Rel)})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	for _, e := range edges {
		fmt.Fprintf(h, "%d|%d|%d;", e.a, e.b, e.rel)
	}
	for _, t1 := range g.Tier1s() {
		fmt.Fprintf(h, "t%d;", g.ASN(t1))
	}
	return h.Sum64()
}

// TestGenerateGoldenChecksums pins the generator's exact output for three
// seed/size combinations. The Fenwick-tree provider sampling (weighted.go)
// was written to reproduce the draw sequence of the original linear scan
// bit for bit; these checksums were recorded from the pre-Fenwick
// generator and must never change without an explicit decision to break
// topology reproducibility (which invalidates every recorded experiment).
func TestGenerateGoldenChecksums(t *testing.T) {
	cases := []struct {
		seed  uint64
		n     int
		want  uint64
		links int
	}{
		{seed: 1, n: 500, want: 0x49027a0225da239f, links: 3979},
		{seed: 42, n: 2000, want: 0xfbbf5492e60624ca, links: 8289},
		{seed: 7, n: 4000, want: 0x2985d610e845b3f0, links: 12599},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d_n%d", tc.seed, tc.n), func(t *testing.T) {
			p := DefaultGenParams(tc.seed)
			p.NumASes = tc.n
			g, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := graphChecksum(g); got != tc.want {
				t.Errorf("checksum = %#x, want %#x (generator output drifted)", got, tc.want)
			}
			if got := g.NumLinks(); got != tc.links {
				t.Errorf("NumLinks = %d, want %d", got, tc.links)
			}
		})
	}
}

// checkInternetGraph asserts the structural invariants the BGP engine and
// the paper's techniques rely on, at any scale.
func checkInternetGraph(t *testing.T, g *Graph, p GenParams) {
	t.Helper()
	if g.NumASes() != p.NumASes {
		t.Fatalf("NumASes = %d, want %d", g.NumASes(), p.NumASes)
	}
	t1s := g.Tier1s()
	if len(t1s) != p.NumTier1 {
		t.Fatalf("tier-1 count = %d, want %d", len(t1s), p.NumTier1)
	}
	// Tier-1s form a clique and have no providers.
	for _, i := range t1s {
		peers := 0
		for _, n := range g.Neighbors(i) {
			if n.Rel == RelProvider {
				t.Fatalf("tier-1 AS%d has a provider", g.ASN(i))
			}
			if n.Rel == RelPeer && g.IsTier1(n.Idx) {
				peers++
			}
		}
		if peers != p.NumTier1-1 {
			t.Fatalf("tier-1 AS%d peers with %d tier-1s, want %d", g.ASN(i), peers, p.NumTier1-1)
		}
	}
	// Every non-tier-1 AS has at least one provider (connectivity to the
	// clique follows inductively from creation order).
	for i := 0; i < g.NumASes(); i++ {
		if g.IsTier1(i) {
			continue
		}
		hasProv := false
		for _, n := range g.Neighbors(i) {
			if n.Rel == RelProvider {
				hasProv = true
				break
			}
		}
		if !hasProv {
			t.Fatalf("AS%d has no provider", g.ASN(i))
		}
	}
	// Heavy tail: some provider should have accumulated a large customer
	// cone edge count via preferential attachment.
	maxCust := 0
	for i := 0; i < g.NumASes(); i++ {
		cust := 0
		for _, n := range g.Neighbors(i) {
			if n.Rel == RelCustomer {
				cust++
			}
		}
		if cust > maxCust {
			maxCust = cust
		}
	}
	if maxCust < 100 {
		t.Errorf("max customer degree = %d, want >= 100 at internet scale", maxCust)
	}
}

// TestInternetGenParams10k exercises the 10k-AS internet tier end to end:
// structural invariants plus a full CAIDA serdes round trip asserting the
// parsed graph is identical to the generated one (satellite: serdes
// round-trip at 10k+ ASes).
func TestInternetGenParams10k(t *testing.T) {
	p := InternetGenParams(3, 10000)
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	checkInternetGraph(t, g, p)

	var buf bytes.Buffer
	if err := WriteCAIDA(&buf, g); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	g2, err := ReadCAIDA(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Field-wise graph equality: same AS set, same adjacency with same
	// relationships, same tier-1 marking. The checksum covers all of it.
	if g2.NumASes() != g.NumASes() {
		t.Fatalf("round trip NumASes = %d, want %d", g2.NumASes(), g.NumASes())
	}
	if g2.NumLinks() != g.NumLinks() {
		t.Fatalf("round trip NumLinks = %d, want %d", g2.NumLinks(), g.NumLinks())
	}
	if got, want := graphChecksum(g2), graphChecksum(g); got != want {
		t.Fatalf("round trip checksum = %#x, want %#x", got, want)
	}
	// Re-serialization is byte-stable.
	var buf2 bytes.Buffer
	if err := WriteCAIDA(&buf2, g2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatal("re-serialized CAIDA output differs from original")
	}
}

// TestInternetGenParams80k proves the 80k-AS tier generates correctly.
// With the Fenwick-tree sampler this takes well under a second; the old
// linear scan would have needed minutes (O(n^2) provider picks).
func TestInternetGenParams80k(t *testing.T) {
	if testing.Short() {
		t.Skip("80k generation skipped in -short")
	}
	p := InternetGenParams(11, 80000)
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	checkInternetGraph(t, g, p)
	if g.NumLinks() < 2*p.NumASes {
		t.Errorf("NumLinks = %d, implausibly sparse for %d ASes", g.NumLinks(), p.NumASes)
	}
	if _, ok := g.Index(originASN); ok {
		t.Errorf("AS%d, the platform's origin, numbers a topology AS", originASN)
	}
	if last := g.ASN(g.NumASes() - 1); last != ASN(p.NumASes+1) {
		t.Errorf("highest ASN %d, want %d: numbering skips exactly the origin", last, p.NumASes+1)
	}
}

// TestInternetGenParamsDeterministic: same seed, same graph, at the 10k
// tier (the 4k default is covered by TestGenerateDeterministic).
func TestInternetGenParamsDeterministic(t *testing.T) {
	a, err := Generate(InternetGenParams(9, 10000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(InternetGenParams(9, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if graphChecksum(a) != graphChecksum(b) {
		t.Fatal("same seed produced different graphs")
	}
}

func benchGenerate(b *testing.B, p GenParams) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumASes() != p.NumASes {
			b.Fatal("wrong size")
		}
	}
}

func BenchmarkGenerate4k(b *testing.B)  { benchGenerate(b, DefaultGenParams(1)) }
func BenchmarkGenerate10k(b *testing.B) { benchGenerate(b, InternetGenParams(1, 10000)) }
func BenchmarkGenerate80k(b *testing.B) { benchGenerate(b, InternetGenParams(1, 80000)) }
