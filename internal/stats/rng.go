// Package stats provides deterministic randomness and the small set of
// statistical primitives the experiments need: complementary CDFs,
// percentiles, Pareto sampling, and summary helpers.
//
// Every stochastic component in this repository draws from a stats.RNG
// constructed from an explicit seed so that experiments are reproducible
// bit-for-bit across runs and machines.
package stats

import "math/bits"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256**). It is not safe for concurrent use; derive per-goroutine
// generators with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Two RNGs built
// from the same seed produce identical streams on all platforms.
func NewRNG(seed uint64) *RNG {
	// SplitMix64 expansion of the seed into the xoshiro state, as
	// recommended by the xoshiro authors to avoid correlated states.
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		r.s[i] = Mix64(sm)
	}
	return r
}

// Mix64 is the SplitMix64 finalizer: a bijective avalanche of z, so
// nearby inputs (seeds, site keys, salts) map to decorrelated outputs.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a statistically independent generator from r, advancing r.
// Use it to hand isolated streams to concurrent workers.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the swap callback.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
