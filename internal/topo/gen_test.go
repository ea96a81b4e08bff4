package topo

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenerateDefaultIsValid(t *testing.T) {
	g, err := Generate(DefaultGenParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumASes() != 4000 {
		t.Fatalf("NumASes = %d, want 4000", g.NumASes())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultGenParams(7)
	p.NumASes = 500
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := WriteCAIDA(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteCAIDA(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same seed produced different graphs")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p1, p2 := DefaultGenParams(1), DefaultGenParams(2)
	p1.NumASes, p2.NumASes = 500, 500
	a, err := Generate(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p2)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := WriteCAIDA(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteCAIDA(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateTier1Clique(t *testing.T) {
	p := DefaultGenParams(3)
	p.NumASes = 300
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	t1 := g.Tier1s()
	if len(t1) != p.NumTier1 {
		t.Fatalf("got %d tier-1s, want %d", len(t1), p.NumTier1)
	}
	for _, i := range t1 {
		if len(g.Providers(i)) != 0 {
			t.Errorf("tier-1 AS%d has providers", g.ASN(i))
		}
		for _, j := range t1 {
			if i == j {
				continue
			}
			if rel, ok := g.Rel(i, j); !ok || rel != RelPeer {
				t.Errorf("tier-1s AS%d and AS%d not peering", g.ASN(i), g.ASN(j))
			}
		}
	}
}

func TestGenerateEveryoneHasProviderPathToTier1(t *testing.T) {
	p := DefaultGenParams(5)
	p.NumASes = 800
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Walk up providers from every AS; must reach a tier-1.
	for i := 0; i < g.NumASes(); i++ {
		cur := i
		for hops := 0; hops < 100; hops++ {
			if g.IsTier1(cur) {
				break
			}
			provs := g.Providers(cur)
			if len(provs) == 0 {
				t.Fatalf("AS%d has no provider and is not tier-1", g.ASN(cur))
			}
			cur = provs[0]
		}
	}
}

func TestGenerateHeavyTailDegrees(t *testing.T) {
	g, err := Generate(DefaultGenParams(11))
	if err != nil {
		t.Fatal(err)
	}
	// Preferential attachment should produce at least one AS with a large
	// customer base and many ASes with few customers.
	maxCust := 0
	for i := 0; i < g.NumASes(); i++ {
		if c := g.NumCustomers(i); c > maxCust {
			maxCust = c
		}
	}
	if maxCust < 50 {
		t.Fatalf("max customer degree = %d, expected a heavy tail (>=50)", maxCust)
	}
}

func TestGenerateParamValidation(t *testing.T) {
	cases := []GenParams{
		{Seed: 1, NumASes: 5, NumTier1: 10, TransitFrac: 0.2},
		{Seed: 1, NumASes: 100, NumTier1: 1, TransitFrac: 0.2},
		{Seed: 1, NumASes: 100, NumTier1: 5, TransitFrac: 0},
		{Seed: 1, NumASes: 100, NumTier1: 5, TransitFrac: 1},
	}
	for i, p := range cases {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: expected parameter error", i)
		}
	}
}

func TestGenerateHasPeering(t *testing.T) {
	p := DefaultGenParams(13)
	p.NumASes = 1000
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	peerLinks := 0
	for i := 0; i < g.NumASes(); i++ {
		for _, n := range g.Neighbors(i) {
			if n.Rel == RelPeer && n.Idx > i {
				peerLinks++
			}
		}
	}
	clique := p.NumTier1 * (p.NumTier1 - 1) / 2
	if peerLinks <= clique {
		t.Fatalf("no IXP peering beyond the tier-1 clique (%d links)", peerLinks)
	}
}

func TestCAIDARoundTrip(t *testing.T) {
	p := DefaultGenParams(17)
	p.NumASes = 400
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCAIDA(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadCAIDA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteCAIDA(&buf2, g2); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := WriteCAIDA(&buf1, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("CAIDA round-trip not stable")
	}
	if g2.NumASes() != g.NumASes() || g2.NumLinks() != g.NumLinks() {
		t.Fatal("round-trip changed graph size")
	}
}

func TestReadCAIDAInfersTier1(t *testing.T) {
	in := "1|2|0\n1|3|-1\n2|4|-1\n3|5|-1\n"
	g, err := ReadCAIDA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	t1 := map[ASN]bool{}
	for _, i := range g.Tier1s() {
		t1[g.ASN(i)] = true
	}
	if !t1[1] || !t1[2] || len(t1) != 2 {
		t.Fatalf("inferred tier-1s = %v, want {1,2}", t1)
	}
}

func TestReadCAIDAErrors(t *testing.T) {
	cases := []string{
		"1|2\n",                 // too few fields
		"x|2|-1\n",              // bad ASN
		"1|y|0\n",               // bad ASN
		"1|2|7\n",               // unknown relationship
		"1|1|-1\n",              // self link
		"1|2|-1\n1|2|0\n",       // duplicate
		"# tier1: zzz\n1|2|0\n", // bad tier-1 header
	}
	for i, in := range cases {
		if _, err := ReadCAIDA(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q): expected parse error", i, in)
		}
	}
}

func TestReadCAIDASkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n1|2|-1\n  \n# another\n2|3|-1\n"
	g, err := ReadCAIDA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumASes() != 3 || g.NumLinks() != 2 {
		t.Fatalf("got %d ASes %d links", g.NumASes(), g.NumLinks())
	}
}
