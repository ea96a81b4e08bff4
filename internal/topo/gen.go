package topo

import (
	"fmt"

	"spooftrack/internal/stats"
)

// GenParams configures the synthetic Internet generator. The defaults
// (DefaultGenParams) produce a topology with the structural features the
// paper's techniques depend on: a tier-1 clique at the top, a transit
// hierarchy with preferential attachment (heavy-tailed customer degrees),
// IXP-style peering meshes in the middle, and multihomed stubs at the edge.
type GenParams struct {
	// Seed drives all randomness in the generator.
	Seed uint64
	// NumASes is the total number of ASes to generate.
	NumASes int
	// NumTier1 is the number of tier-1 ASes (full peering clique, no
	// providers).
	NumTier1 int
	// TransitFrac is the fraction of non-tier-1 ASes that are mid-tier
	// transit providers; the rest are stubs.
	TransitFrac float64
	// MeanTransitProviders is the mean number of providers a mid-tier
	// transit AS buys from (at least 1).
	MeanTransitProviders float64
	// StubMultihomeProb is the probability that a stub connects to a
	// second provider.
	StubMultihomeProb float64
	// StubTier1Prob is the probability that a stub buys directly from a
	// tier-1 instead of a mid-tier provider.
	StubTier1Prob float64
	// NumIXPs is the number of IXP-style peering meshes to create among
	// mid-tier ASes.
	NumIXPs int
	// IXPSize is the number of mid-tier ASes participating in each IXP.
	IXPSize int
	// IXPPeerProb is the probability that two co-located IXP members
	// establish a peering link.
	IXPPeerProb float64
}

// DefaultGenParams returns generator parameters sized to roughly match the
// coverage of the paper's measurement dataset (1885 observed ASes out of
// the routed Internet): ~4000 ASes with ~900 transit networks. The
// multihoming and peering densities are chosen at the high end of
// measured Internet values so that the route diversity available to the
// paper's techniques at the granularity of *observed* ASes (which are
// disproportionately well-connected) is preserved at this reduced scale.
func DefaultGenParams(seed uint64) GenParams {
	return GenParams{
		Seed:                 seed,
		NumASes:              4000,
		NumTier1:             12,
		TransitFrac:          0.22,
		MeanTransitProviders: 2.8,
		StubMultihomeProb:    0.75,
		StubTier1Prob:        0.03,
		NumIXPs:              35,
		IXPSize:              25,
		IXPPeerProb:          0.40,
	}
}

// InternetGenParams returns generator parameters for internet-scale
// topologies (intended tiers: 10k and 80k ASes; any numASes >= 1000
// works). Compared to the paper-scale defaults the mix shifts toward
// measured full-Internet structure: a slightly larger tier-1 clique,
// a smaller transit fraction (CAIDA's AS relationship snapshots show
// ~15% of ASes providing transit), fewer providers per transit AS, and
// IXP meshes that scale with the transit population so peering density
// per AS stays roughly flat rather than collapsing. At 80k ASes this is
// the regime a real deployment routes against; generation stays
// CI-fast because provider sampling is O(log n) per edge.
func InternetGenParams(seed uint64, numASes int) GenParams {
	p := GenParams{
		Seed:                 seed,
		NumASes:              numASes,
		NumTier1:             16,
		TransitFrac:          0.15,
		MeanTransitProviders: 2.4,
		StubMultihomeProb:    0.55,
		StubTier1Prob:        0.02,
		IXPSize:              40,
		IXPPeerProb:          0.30,
	}
	// One IXP mesh per ~350 ASes keeps per-transit peering density in
	// the measured range as the topology grows (~30 meshes at 10k, ~230
	// at 80k).
	p.NumIXPs = numASes / 350
	if p.NumIXPs < 8 {
		p.NumIXPs = 8
	}
	return p
}

// Generate builds a synthetic AS-level Internet according to the
// parameters. The same parameters always produce the same graph.
func Generate(p GenParams) (*Graph, error) {
	if p.NumASes < p.NumTier1+2 {
		return nil, fmt.Errorf("topo: NumASes=%d too small for NumTier1=%d", p.NumASes, p.NumTier1)
	}
	if p.NumTier1 < 2 {
		return nil, fmt.Errorf("topo: need at least 2 tier-1 ASes, got %d", p.NumTier1)
	}
	if p.TransitFrac <= 0 || p.TransitFrac >= 1 {
		return nil, fmt.Errorf("topo: TransitFrac=%v out of (0,1)", p.TransitFrac)
	}
	rng := stats.NewRNG(p.Seed)
	b := NewBuilder()

	// ASNs are assigned sequentially from 1, skipping originASN (genASN).
	numTransit := int(float64(p.NumASes-p.NumTier1) * p.TransitFrac)
	numStub := p.NumASes - p.NumTier1 - numTransit

	// Tier-1 clique.
	tier1 := make([]ASN, p.NumTier1)
	for i := range tier1 {
		tier1[i] = genASN(i + 1)
		b.MarkTier1(tier1[i])
	}
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			if err := b.AddP2P(tier1[i], tier1[j]); err != nil {
				return nil, err
			}
		}
	}

	// Preferential attachment samples providers proportionally to
	// custDegree+1 so early providers grow heavy tails. Each pool keeps
	// those weights in a Fenwick tree (weighted.go): picks cost O(log n)
	// instead of a full pool scan, which is what makes 80k-AS generation
	// finish in seconds, and the draw sequence matches the old linear
	// scan exactly (TestGenerateGoldenChecksums pins this).

	// Mid-tier transit ASes buy from tier-1s and previously created
	// mid-tier ASes.
	transit := make([]ASN, numTransit)
	providerPool := newWeightedPool(p.NumTier1 + numTransit)
	for _, t1 := range tier1 {
		providerPool.add(t1, 1)
	}
	for i := range transit {
		asn := genASN(p.NumTier1 + i + 1)
		transit[i] = asn
		// 1 + geometric-ish number of providers around the mean.
		nProv := 1
		for float64(nProv) < p.MeanTransitProviders-0.5+rng.Float64() && nProv < 4 {
			nProv++
		}
		for k := 0; k < nProv; k++ {
			prov := providerPool.pick(rng, asn, b)
			if prov == 0 {
				break
			}
			if err := b.AddP2C(prov, asn); err != nil {
				return nil, err
			}
			providerPool.bump(prov)
		}
		providerPool.add(asn, 1)
	}

	// Stubs buy from mid-tier ASes (occasionally tier-1s). Two pools in
	// the same order the old scan visited (transit in creation order,
	// tier-1s ascending), carrying the customer degrees accumulated so
	// far; stub attachments keep feeding back into the weights.
	transitPool := newWeightedPool(max(numTransit, 1))
	for _, asn := range transit {
		transitPool.add(asn, providerPool.weightOf(asn))
	}
	tier1Pool := newWeightedPool(p.NumTier1)
	for _, asn := range tier1 {
		tier1Pool.add(asn, providerPool.weightOf(asn))
	}
	for i := 0; i < numStub; i++ {
		asn := genASN(p.NumTier1 + numTransit + i + 1)
		nProv := 1
		if rng.Bool(p.StubMultihomeProb) {
			nProv = 2
		}
		for k := 0; k < nProv; k++ {
			pool := transitPool
			if rng.Bool(p.StubTier1Prob) || len(transit) == 0 {
				pool = tier1Pool
			}
			prov := pool.pick(rng, asn, b)
			if prov == 0 {
				break
			}
			if err := b.AddP2C(prov, asn); err != nil {
				return nil, err
			}
			pool.bump(prov)
		}
	}

	// IXP peering meshes among mid-tier ASes.
	for x := 0; x < p.NumIXPs && len(transit) > 1; x++ {
		size := p.IXPSize
		if size > len(transit) {
			size = len(transit)
		}
		members := sampleASNs(rng, transit, size)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if rng.Bool(p.IXPPeerProb) && !b.HasLink(members[i], members[j]) {
					if err := b.AddP2P(members[i], members[j]); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	return b.Freeze(), nil
}

// originASN is the measurement platform's origin AS number
// (peering.PEERINGASN, which imports this package; core's
// TestBuildWorld80k fails if the two drift apart). Generate never gives
// it to a topology AS: a routing engine rejects an origin that collides
// with one.
const originASN ASN = 47065

// genASN is the ASN of the k-th generated AS (k from 1): k itself below
// originASN, k+1 from there on. Graphs with fewer than 47 065 ASes are
// numbered exactly 1…N.
func genASN(k int) ASN {
	if k >= int(originASN) {
		return ASN(k + 1)
	}
	return ASN(k)
}

// sampleASNs returns k distinct elements of pool (partial Fisher-Yates).
func sampleASNs(rng *stats.RNG, pool []ASN, k int) []ASN {
	cp := append([]ASN(nil), pool...)
	if k > len(cp) {
		k = len(cp)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:k]
}
