package stats

import (
	"fmt"
	"math"
	"sort"
)

// MinOf runs the sides in turn, rounds times over, and returns each
// side's smallest reading. A side times its own fixed-size sample, so
// its set-up and draining stay off the clock. Alternating spreads a slow
// stretch of the machine over every side, and the minimum is the sample
// the rest of the machine disturbed least; the Benchmark…Budget gates
// but core's ledger gate, which takes the median of paired ratios,
// compare their two sides this way.
func MinOf(rounds int, sides ...func() float64) []float64 {
	best := make([]float64, len(sides))
	for r := 0; r < rounds; r++ {
		for i, sample := range sides {
			if v := sample(); r == 0 || v < best[i] {
				best[i] = v
			}
		}
	}
	return best
}

// CCDFPoint is one point of a complementary cumulative distribution:
// Frac is the fraction of samples with value strictly greater than or
// equal to Value (the convention used by the paper's figures, which plot
// P[X >= x] on log-log axes).
type CCDFPoint struct {
	Value float64
	Frac  float64
}

// CCDF computes the complementary cumulative distribution of the samples.
// The result has one point per distinct sample value, in increasing order
// of value. CCDF of an empty slice is nil.
func CCDF(samples []float64) []CCDFPoint {
	if len(samples) == 0 {
		return nil
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var out []CCDFPoint
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		// Fraction of samples >= sorted[i].
		out = append(out, CCDFPoint{Value: sorted[i], Frac: float64(len(sorted)-i) / n})
		i = j
	}
	return out
}

// CCDFInts computes the CCDF of integer samples (e.g., cluster sizes).
func CCDFInts(samples []int) []CCDFPoint {
	fs := make([]float64, len(samples))
	for i, v := range samples {
		fs[i] = float64(v)
	}
	return CCDF(fs)
}

// FracGreater returns the fraction of samples whose value exceeds x.
func FracGreater(samples []int, x int) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, v := range samples {
		if v > x {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

// Mean returns the arithmetic mean of the samples, or 0 for no samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the samples
// using linear interpolation between closest ranks. It panics on an empty
// slice or out-of-range p.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	// lo + (hi-lo)*frac, not lo*(1-frac) + hi*frac: the latter can round
	// above a tie (lo == hi) and so break monotonicity in p.
	frac := rank - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// PercentileInts is Percentile over integer samples.
func PercentileInts(samples []int, p float64) float64 {
	fs := make([]float64, len(samples))
	for i, v := range samples {
		fs[i] = float64(v)
	}
	return Percentile(fs, p)
}

// Pareto samples from a Pareto (type I) distribution with minimum xm and
// shape alpha. Larger alpha concentrates mass near xm.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("stats: Pareto parameters must be positive")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// ParetoShape8020 is the shape parameter for which a Pareto distribution
// concentrates 80% of total mass in the top 20% of draws (the "80-20 rule"
// the paper uses for its spoofed-source placement): alpha = log4(5) ≈ 1.16.
var ParetoShape8020 = math.Log(5) / math.Log(4)

// Summary holds the five-number-style summary used in experiment reports.
type Summary struct {
	N    int
	Mean float64
	P25  float64
	P50  float64
	P75  float64
	P90  float64
	Max  float64
}

// Summarize computes a Summary of the samples. A zero Summary is returned
// for no samples.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	max := samples[0]
	for _, v := range samples {
		if v > max {
			max = v
		}
	}
	return Summary{
		N:    len(samples),
		Mean: Mean(samples),
		P25:  Percentile(samples, 25),
		P50:  Percentile(samples, 50),
		P75:  Percentile(samples, 75),
		P90:  Percentile(samples, 90),
		Max:  max,
	}
}
