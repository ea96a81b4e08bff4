// Package addr allocates IPv4 address space to the ASes of a topology
// and provides IP-to-AS mapping, standing in for the Team Cymru service
// and PeeringDB IXP data the paper uses (§IV-b).
//
// Each AS receives one or more /20 blocks from a deterministic grid.
// Router interface addresses used in synthetic traceroutes are drawn from
// an AS's blocks; IXP interconnection segments live in a dedicated range
// that maps to no AS, exactly like real IXP peering LANs that confuse
// IP-to-AS mapping. NewNoisyMapper builds a Mapper with deterministic
// mapping errors to model stale or incorrect registry data.
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
//
// Every address the plan hands out is IPv4, as the paper's PEERING
// prefixes and traceroutes are, and none is 0.0.0.0 (the grid starts at
// 16.0.0.0, the IXP range at 203.0.0.0), so router and IXP addresses are
// big-endian uint32 words and 0 is free to mean "no address".
type Space struct {
	g *topo.Graph
	// first[i] is the first block of AS index i. Allocate hands an AS
	// its blocks consecutively, so AS i owns blocks first[i] up to
	// first[i+1]; the last entry is the block count.
	first []uint32
	// owner[b] is the AS index owning block b. Blocks are numbered from
	// 0 with no holes, so the table is dense.
	owner []int32
}

// Allocate assigns address blocks to every AS in the graph: one block per
// AS, plus one extra block per 8 customers for transit networks (larger
// networks hold more space). Allocation is deterministic for a graph.
func Allocate(g *topo.Graph) *Space {
	s := &Space{g: g, first: make([]uint32, 0, g.NumASes()+1)}
	for i := 0; i < g.NumASes(); i++ {
		s.first = append(s.first, uint32(len(s.owner)))
		extra := g.NumCustomers(i) / 8
		if extra > 3 {
			extra = 3
		}
		for k := 0; k <= extra; k++ {
			s.owner = append(s.owner, int32(i))
		}
	}
	s.first = append(s.first, uint32(len(s.owner)))
	return s
}

// PrefixesOf returns the prefixes allocated to the AS at dense index i.
func (s *Space) PrefixesOf(i int) []netip.Prefix {
	out := make([]netip.Prefix, 0, s.first[i+1]-s.first[i])
	for b := s.first[i]; b < s.first[i+1]; b++ {
		out = append(out, netip.PrefixFrom(u32ToAddr(base+b*blockSize), blockBits))
	}
	return out
}

// RouterAddr returns the address of the k-th router interface of the AS
// at dense index i, deterministically spread across the AS's blocks.
// Interface addresses start at offset 1 within a block.
func (s *Space) RouterAddr(i, k int) uint32 {
	n := int(s.first[i+1] - s.first[i])
	blk := s.first[i] + uint32(k%n)
	off := uint32(1 + (k/n)%(blockSize-2))
	return base + blk*blockSize + off
}

// HostAddr returns the address of the k-th end host in the AS at dense
// index i (drawn from the top half of the AS's first block, so host and
// router addresses do not collide for small k).
func (s *Space) HostAddr(i, k int) netip.Addr {
	blk := s.first[i]
	off := uint32(blockSize/2 + k%(blockSize/2-1))
	return u32ToAddr(base + blk*blockSize + off)
}

// IXPAddr returns the k-th address of the IXP segment range: a valid,
// responsive router address that maps to no AS.
func IXPAddr(k int) uint32 {
	return ixpBase + uint32(k)%(1<<20)
}

// IsIXP reports whether the address lies in the IXP segment range.
func IsIXP(v uint32) bool {
	return v >= ixpBase && v < ixpBase+(1<<20)
}

func u32ToAddr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

// Mapper returns the error-free mapping: every address maps to the AS
// that owns its block. The Mapper shares the Space's table.
func (s *Space) Mapper() Mapper { return Mapper{s.owner} }

// Mapper resolves IPv4 addresses to AS indices through a dense table of
// each block's AS: the Space's own (Space.Mapper) maps every address to
// its owner, and NewNoisyMapper's has wrong ASes written into some
// blocks. The zero Mapper maps nothing.
type Mapper struct {
	// owner[b] is the AS index block b maps to.
	owner []int32
}

// Map returns the dense AS index for the address; ok is false when the
// address lies outside the allocated blocks (IXP segments, unallocated
// space, 0).
func (m Mapper) Map(v uint32) (idx int, ok bool) {
	if v < base {
		return 0, false
	}
	blk := (v - base) / blockSize
	if blk >= uint32(len(m.owner)) {
		return 0, false
	}
	return int(m.owner[blk]), true
}

// NewNoisyMapper builds a mapper where errRate of blocks map to a wrong,
// randomly chosen AS: a fraction of blocks are mis-attributed (stale
// registry data), so every address in an affected block maps wrongly,
// which is how real IP-to-AS errors behave. Deterministic for a seed.
func NewNoisyMapper(space *Space, errRate float64, seed uint64) (Mapper, error) {
	if errRate < 0 || errRate > 1 {
		return Mapper{}, fmt.Errorf("addr: error rate %v out of [0,1]", errRate)
	}
	rng := stats.NewRNG(seed ^ 0xadd2e55e5)
	m := Mapper{owner: slices.Clone(space.owner)}
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
