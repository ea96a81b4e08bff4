// Package addr allocates IPv4 address space to the ASes of a topology
// and provides IP-to-AS mapping, standing in for the Team Cymru service
// and PeeringDB IXP data the paper uses (§IV-b).
//
// Each AS receives one or more /20 blocks from a deterministic grid.
// Router interface addresses used in synthetic traceroutes are drawn from
// an AS's blocks; IXP interconnection segments live in a dedicated range
// that maps to no AS, exactly like real IXP peering LANs that confuse
// IP-to-AS mapping. A NoisyMapper injects deterministic mapping errors to
// model stale or incorrect registry data.
package addr

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"

	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// blockBits is the prefix length of each allocated block.
const blockBits = 20

// blockSize is the number of addresses per allocated block.
const blockSize = 1 << (32 - blockBits)

// base is the first address of the allocation grid (16.0.0.0).
const base = uint32(16) << 24

// ixpBase is the start of the IXP segment range (203.0.0.0), outside the
// allocation grid; addresses here map to no AS.
const ixpBase = uint32(203) << 24

// Space is an allocation of IPv4 blocks to ASes. Build one with Allocate;
// a Space is immutable and safe for concurrent use.
type Space struct {
	g *topo.Graph
	// blocks[i] lists the block numbers owned by AS index i.
	blocks [][]uint32
	// owner[b] is the AS index owning block b. Blocks are numbered from
	// 0 with no holes, so the table is dense.
	owner []int32
}

// Allocate assigns address blocks to every AS in the graph: one block per
// AS, plus one extra block per 8 customers for transit networks (larger
// networks hold more space). Allocation is deterministic for a graph.
func Allocate(g *topo.Graph) *Space {
	s := &Space{
		g:      g,
		blocks: make([][]uint32, g.NumASes()),
	}
	take := func(i int) {
		s.blocks[i] = append(s.blocks[i], uint32(len(s.owner)))
		s.owner = append(s.owner, int32(i))
	}
	for i := 0; i < g.NumASes(); i++ {
		take(i)
		extra := g.NumCustomers(i) / 8
		if extra > 3 {
			extra = 3
		}
		for k := 0; k < extra; k++ {
			take(i)
		}
	}
	return s
}

// PrefixesOf returns the prefixes allocated to the AS at dense index i.
func (s *Space) PrefixesOf(i int) []netip.Prefix {
	out := make([]netip.Prefix, len(s.blocks[i]))
	for k, b := range s.blocks[i] {
		out[k] = netip.PrefixFrom(u32ToAddr(base+b*blockSize), blockBits)
	}
	return out
}

// Map implements Mapper with no errors: it maps an address to the dense
// index of the owning AS. The second return is false for addresses
// outside the allocation grid (including IXP segments).
func (s *Space) Map(ip netip.Addr) (int, bool) { return lookup(s.owner, ip) }

// lookup reads the AS of ip's block from a dense block table; ok is
// false for addresses outside the table's blocks.
func lookup(table []int32, ip netip.Addr) (int, bool) {
	if !ip.Is4() {
		return 0, false
	}
	v := addrToU32(ip)
	if v < base {
		return 0, false
	}
	blk := (v - base) / blockSize
	if blk >= uint32(len(table)) {
		return 0, false
	}
	return int(table[blk]), true
}

// RouterAddr returns the address of the k-th router interface of the AS
// at dense index i, deterministically spread across the AS's blocks.
// Interface addresses start at offset 1 within a block.
func (s *Space) RouterAddr(i, k int) netip.Addr {
	blks := s.blocks[i]
	blk := blks[k%len(blks)]
	off := uint32(1 + (k/len(blks))%(blockSize-2))
	return u32ToAddr(base + blk*blockSize + off)
}

// HostAddr returns the address of the k-th end host in the AS at dense
// index i (drawn from the top half of the AS's first block, so host and
// router addresses do not collide for small k).
func (s *Space) HostAddr(i, k int) netip.Addr {
	blk := s.blocks[i][0]
	off := uint32(blockSize/2 + k%(blockSize/2-1))
	return u32ToAddr(base + blk*blockSize + off)
}

// IXPAddr returns the k-th address of the IXP segment range: a valid,
// responsive router address that maps to no AS.
func IXPAddr(k int) netip.Addr {
	return u32ToAddr(ixpBase + uint32(k)%(1<<20))
}

// IsIXP reports whether the address lies in the IXP segment range.
func IsIXP(ip netip.Addr) bool {
	if !ip.Is4() {
		return false
	}
	v := addrToU32(ip)
	return v >= ixpBase && v < ixpBase+(1<<20)
}

func u32ToAddr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

func addrToU32(ip netip.Addr) uint32 {
	b := ip.As4()
	return binary.BigEndian.Uint32(b[:])
}

// Mapper resolves addresses to AS indices, possibly with errors. It is
// the interface the measurement pipeline consumes, so tests can swap the
// perfect mapper (the *Space itself) for a noisy one.
type Mapper interface {
	// Map returns the dense AS index for the address; ok is false when
	// the address cannot be mapped (IXP segments, unallocated space).
	Map(ip netip.Addr) (idx int, ok bool)
}

// NoisyMapper wraps a Space with a deterministic per-block error model:
// a fraction of blocks are mis-attributed to a different AS (stale
// registry data), so every address in an affected block maps wrongly,
// which is how real IP-to-AS errors behave.
type NoisyMapper struct {
	// owner is the Space's block table with the wrong blocks applied.
	owner []int32
}

// NewNoisyMapper builds a mapper where errRate of blocks map to a wrong,
// randomly chosen AS. Deterministic for a seed.
func NewNoisyMapper(space *Space, errRate float64, seed uint64) (*NoisyMapper, error) {
	if errRate < 0 || errRate > 1 {
		return nil, fmt.Errorf("addr: error rate %v out of [0,1]", errRate)
	}
	rng := stats.NewRNG(seed ^ 0xadd2e55e5)
	m := &NoisyMapper{owner: slices.Clone(space.owner)}
	n := space.g.NumASes()
	// One draw per block in block order, so the error assignment is
	// deterministic for a seed.
	for blk, own := range space.owner {
		if !rng.Bool(errRate) {
			continue
		}
		w := rng.Intn(n)
		if w == int(own) {
			w = (w + 1) % n
		}
		m.owner[blk] = int32(w)
	}
	return m, nil
}

// Map implements Mapper.
func (m *NoisyMapper) Map(ip netip.Addr) (int, bool) { return lookup(m.owner, ip) }
