package addr

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/netip"
	"testing"
	"testing/quick"

	"spooftrack/internal/stats"
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
			got, ok := s.Mapper().Map(ip)
			if !ok || got != i {
				t.Fatalf("RouterAddr(%d,%d)=%v maps to %d ok=%v", i, k, ip, got, ok)
			}
			host := s.HostAddr(i, k)
			got, ok = s.Mapper().Map(addrToU32(host))
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
		r := u32ToAddr(s.RouterAddr(5, k))
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
	for _, ip := range []uint32{
		addrToU32(netip.MustParseAddr("8.8.8.8")), // below grid
		0,          // no address
		IXPAddr(3), // IXP segment
		addrToU32(netip.MustParseAddr("255.255.255.255")), // far beyond grid
	} {
		if _, ok := s.Mapper().Map(ip); ok {
			t.Errorf("address %v should not map to an AS", u32ToAddr(ip))
		}
	}
}

func TestIXPAddrs(t *testing.T) {
	if !IsIXP(IXPAddr(0)) || !IsIXP(IXPAddr(999999)) {
		t.Fatal("IXP addresses not recognized")
	}
	if IsIXP(addrToU32(netip.MustParseAddr("16.0.0.1"))) {
		t.Fatal("grid address misidentified as IXP")
	}
	if IsIXP(0) {
		t.Fatal("no address misidentified as IXP")
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
		c := g.NumCustomers(i)
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

// blockAddrs returns the first router address of every allocated block,
// indexed by block number, with the AS that owns it.
func blockAddrs(s *Space) (addrs []uint32, owners []int) {
	for i := range s.first[:len(s.first)-1] {
		for k := range int(s.first[i+1] - s.first[i]) {
			blk := s.first[i] + uint32(k)
			for int(blk) >= len(addrs) {
				addrs = append(addrs, 0)
				owners = append(owners, -1)
			}
			addrs[blk], owners[blk] = s.RouterAddr(i, k), i
		}
	}
	return addrs, owners
}

func TestNoisyMapperErrRate(t *testing.T) {
	g := graphForTest(t, 400)
	s := Allocate(g)
	m, err := NewNoisyMapper(s, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Count errors through Map, one address per block: mis-attributed
	// blocks must map to a different AS, not fail.
	addrs, owners := blockAddrs(s)
	errors := 0
	for blk, ip := range addrs {
		got, ok := m.Map(ip)
		if !ok {
			t.Fatalf("noisy mapper failed on allocated address %v", u32ToAddr(ip))
		}
		if got != owners[blk] {
			errors++
		}
	}
	frac := float64(errors) / float64(len(addrs))
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("error fraction %.3f, want ~0.1", frac)
	}
}

// TestMapperEdges pins what both mappers refuse, that a noisy mapper
// differs from the perfect one on exactly the blocks its seed draws
// wrong, and which blocks those are for two seeds.
func TestMapperEdges(t *testing.T) {
	g := graphForTest(t, 400)
	s := Allocate(g)
	addrs, owners := blockAddrs(s)
	perfect := s.Mapper()
	for _, tc := range []struct {
		seed uint64
		// wrong is an FNV-1a digest of the (block, wrong AS) pairs in
		// block order, captured on the map-backed mapper.
		wrong uint64
		n     int
	}{
		{1, 0xa73349baf2a774b5, 46},
		{7, 0x69b2b17b208a38c, 48},
	} {
		noisy, err := NewNoisyMapper(s, 0.1, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]Mapper{"perfect": perfect, "noisy": noisy} {
			for _, ip := range []uint32{
				base + uint32(len(addrs))*blockSize, // first address past the last block
				base - 1,                            // last address before the grid
				IXPAddr(0),
				IXPAddr(1<<20 - 1),
				0,         // no address
				1<<32 - 1, // the last word
			} {
				if i, ok := m.Map(ip); ok {
					t.Errorf("seed %d, %s: %v maps to AS index %d, want no AS", tc.seed, name, u32ToAddr(ip), i)
				}
			}
		}
		// Replay the error draws: a drawn block maps to another AS, every
		// other block to its owner.
		rng := stats.NewRNG(tc.seed ^ 0xadd2e55e5)
		h := fnv.New64a()
		n := 0
		for blk, ip := range addrs {
			drawn := rng.Bool(0.1)
			if drawn {
				rng.Intn(g.NumASes())
			}
			want, ok := perfect.Map(ip)
			if !ok || want != owners[blk] {
				t.Fatalf("perfect mapper: block %d maps to %d ok=%v, want %d", blk, want, ok, owners[blk])
			}
			got, ok := noisy.Map(ip)
			if !ok {
				t.Fatalf("seed %d: noisy mapper failed on block %d", tc.seed, blk)
			}
			if drawn != (got != want) {
				t.Fatalf("seed %d: block %d drawn wrong %v, but maps to %d (owner %d)", tc.seed, blk, drawn, got, want)
			}
			if drawn {
				n++
				fmt.Fprintf(h, "%d:%d,", blk, got)
			}
		}
		if n != tc.n || h.Sum64() != tc.wrong {
			t.Errorf("seed %d: %d wrong blocks, digest %#x; want %d, %#x", tc.seed, n, h.Sum64(), tc.n, tc.wrong)
		}
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
			t.Fatalf("same-seed mappers disagree on %v", u32ToAddr(ip))
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
	m := s.Mapper()
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

func addrToU32(ip netip.Addr) uint32 {
	b := ip.As4()
	return binary.BigEndian.Uint32(b[:])
}

// TestAddrsNeverZero checks that neither RouterAddr nor IXPAddr ever
// returns 0, the word a traceroute reserves for "no answer": every
// interface of every AS, through the offset's wrap within a block.
func TestAddrsNeverZero(t *testing.T) {
	g := graphForTest(t, 400)
	s := Allocate(g)
	m := s.Mapper()
	for i := 0; i < g.NumASes(); i++ {
		n := int(s.first[i+1] - s.first[i])
		for k := 0; k < n*blockSize; k++ {
			got := s.RouterAddr(i, k)
			if got == 0 {
				t.Fatalf("RouterAddr(%d, %d) = 0", i, k)
			}
			if as, ok := m.Map(got); !ok || as != i {
				t.Fatalf("RouterAddr(%d, %d) = %v maps to %d ok=%v", i, k, u32ToAddr(got), as, ok)
			}
		}
	}
	for _, k := range []int{0, 1, 1<<20 - 1, 1 << 20, 1<<31 - 1} {
		if IXPAddr(k) == 0 {
			t.Fatalf("IXPAddr(%d) = 0", k)
		}
	}
}
