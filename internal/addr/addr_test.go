package addr

import (
	"net/netip"
	"testing"
	"testing/quick"

	"spooftrack/internal/topo"
)

func graphForTest(t testing.TB, n int) *topo.Graph {
	t.Helper()
	p := topo.DefaultGenParams(3)
	p.NumASes = n
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllocateCoversEveryAS(t *testing.T) {
	g := graphForTest(t, 300)
	s := Allocate(g)
	for i := 0; i < g.NumASes(); i++ {
		ps := s.PrefixesOf(i)
		if len(ps) == 0 {
			t.Fatalf("AS%d has no prefixes", g.ASN(i))
		}
		for _, p := range ps {
			if p.Bits() != blockBits {
				t.Fatalf("prefix %v has wrong length", p)
			}
		}
	}
}

func TestAllocationDisjoint(t *testing.T) {
	g := graphForTest(t, 300)
	s := Allocate(g)
	seen := map[netip.Prefix]int{}
	for i := 0; i < g.NumASes(); i++ {
		for _, p := range s.PrefixesOf(i) {
			if prev, dup := seen[p]; dup {
				t.Fatalf("prefix %v allocated to both AS%d and AS%d", p, g.ASN(prev), g.ASN(i))
			}
			seen[p] = i
		}
	}
}

func TestASOfRoundTrip(t *testing.T) {
	g := graphForTest(t, 300)
	s := Allocate(g)
	for i := 0; i < g.NumASes(); i += 7 {
		for k := 0; k < 5; k++ {
			ip := s.RouterAddr(i, k)
			got, ok := s.ASOf(ip)
			if !ok || got != i {
				t.Fatalf("RouterAddr(%d,%d)=%v maps to %d ok=%v", i, k, ip, got, ok)
			}
			host := s.HostAddr(i, k)
			got, ok = s.ASOf(host)
			if !ok || got != i {
				t.Fatalf("HostAddr(%d,%d)=%v maps to %d ok=%v", i, k, host, got, ok)
			}
		}
	}
}

func TestRouterAndHostAddrsDistinct(t *testing.T) {
	g := graphForTest(t, 100)
	s := Allocate(g)
	seen := map[netip.Addr]bool{}
	for k := 0; k < 20; k++ {
		r := s.RouterAddr(5, k)
		if seen[r] {
			t.Fatalf("router address %v repeats within first 20", r)
		}
		seen[r] = true
	}
	for k := 0; k < 20; k++ {
		h := s.HostAddr(5, k)
		if seen[h] {
			t.Fatalf("host address %v collides with router space", h)
		}
	}
}

func TestASOfUnknownAddresses(t *testing.T) {
	g := graphForTest(t, 100)
	s := Allocate(g)
	for _, ip := range []netip.Addr{
		netip.MustParseAddr("8.8.8.8"),         // below grid
		netip.MustParseAddr("2001:db8::1"),     // v6
		IXPAddr(3),                             // IXP segment
		netip.MustParseAddr("255.255.255.255"), // far beyond grid
	} {
		if _, ok := s.ASOf(ip); ok {
			t.Errorf("address %v should not map to an AS", ip)
		}
	}
}

func TestIXPAddrs(t *testing.T) {
	if !IsIXP(IXPAddr(0)) || !IsIXP(IXPAddr(999999)) {
		t.Fatal("IXP addresses not recognized")
	}
	if IsIXP(netip.MustParseAddr("16.0.0.1")) {
		t.Fatal("grid address misidentified as IXP")
	}
	if IsIXP(netip.MustParseAddr("2001:db8::1")) {
		t.Fatal("v6 address misidentified as IXP")
	}
}

func TestTransitGetsMoreSpace(t *testing.T) {
	g := graphForTest(t, 500)
	s := Allocate(g)
	// Find the AS with the most customers; it should hold more blocks
	// than a stub.
	big, bigCust := 0, -1
	stub := -1
	for i := 0; i < g.NumASes(); i++ {
		c := len(g.Customers(i))
		if c > bigCust {
			big, bigCust = i, c
		}
		if c == 0 && stub == -1 {
			stub = i
		}
	}
	if len(s.PrefixesOf(big)) <= len(s.PrefixesOf(stub)) {
		t.Fatalf("transit AS%d has %d blocks, stub AS%d has %d",
			g.ASN(big), len(s.PrefixesOf(big)), g.ASN(stub), len(s.PrefixesOf(stub)))
	}
}

func TestNoisyMapperErrRate(t *testing.T) {
	g := graphForTest(t, 400)
	s := Allocate(g)
	m, err := NewNoisyMapper(s, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := len(s.owner)
	frac := float64(len(m.wrong)) / float64(total)
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("error fraction %.3f, want ~0.1", frac)
	}
	// Mis-attributed blocks must map to a different AS, not fail.
	errors := 0
	for i := 0; i < g.NumASes(); i++ {
		ip := s.RouterAddr(i, 0)
		got, ok := m.Map(ip)
		if !ok {
			t.Fatalf("noisy mapper failed on allocated address %v", ip)
		}
		if got != i {
			errors++
		}
	}
	if errors == 0 {
		t.Fatal("no mapping errors observed at 10% block error rate")
	}
}

func TestNoisyMapperZeroRateIsPerfect(t *testing.T) {
	g := graphForTest(t, 200)
	s := Allocate(g)
	m, err := NewNoisyMapper(s, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumASes(); i++ {
		if got, ok := m.Map(s.RouterAddr(i, 1)); !ok || got != i {
			t.Fatalf("zero-noise mapper wrong for AS%d", g.ASN(i))
		}
	}
}

func TestNoisyMapperDeterministic(t *testing.T) {
	g := graphForTest(t, 200)
	s := Allocate(g)
	m1, _ := NewNoisyMapper(s, 0.2, 42)
	m2, _ := NewNoisyMapper(s, 0.2, 42)
	for i := 0; i < g.NumASes(); i++ {
		ip := s.RouterAddr(i, 0)
		a, aok := m1.Map(ip)
		b, bok := m2.Map(ip)
		if a != b || aok != bok {
			t.Fatalf("same-seed mappers disagree on %v", ip)
		}
	}
}

func TestNoisyMapperRejectsBadRate(t *testing.T) {
	g := graphForTest(t, 100)
	s := Allocate(g)
	if _, err := NewNoisyMapper(s, -0.1, 1); err == nil {
		t.Fatal("expected error for negative rate")
	}
	if _, err := NewNoisyMapper(s, 1.5, 1); err == nil {
		t.Fatal("expected error for rate > 1")
	}
}

func TestPerfectMapper(t *testing.T) {
	g := graphForTest(t, 100)
	s := Allocate(g)
	m := PerfectMapper{Space: s}
	if got, ok := m.Map(s.RouterAddr(3, 0)); !ok || got != 3 {
		t.Fatal("perfect mapper wrong")
	}
	if _, ok := m.Map(IXPAddr(1)); ok {
		t.Fatal("perfect mapper should not map IXP addresses")
	}
}

func TestAddrConversionRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return addrToU32(u32ToAddr(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
