package peering

import (
	"math"
	"time"

	"spooftrack/internal/stats"
)

// ConvergenceModel captures BGP route-convergence delay after an
// announcement change. §IV-b keeps each configuration active for 70
// minutes so that, with high probability, at least three rounds of
// traceroutes (issued every 20 minutes) complete after convergence,
// citing that convergence takes under 2.5 minutes 99% of the time
// (LIFEGUARD, SIGCOMM 2012). The model is lognormal, parameterized by
// its median and 99th percentile.
type ConvergenceModel struct {
	Median time.Duration
	P99    time.Duration
}

// DefaultConvergenceModel matches the paper's operating point: typical
// convergence well under a minute, 99% under 2.5 minutes.
func DefaultConvergenceModel() ConvergenceModel {
	return ConvergenceModel{Median: 30 * time.Second, P99: 150 * time.Second}
}

// z99 is the standard normal 99th-percentile quantile.
const z99 = 2.3263478740408408

// Sample draws one convergence delay. Deterministic for an RNG state.
func (m ConvergenceModel) Sample(rng *stats.RNG) time.Duration {
	mu := math.Log(m.Median.Seconds())
	sigma := (math.Log(m.P99.Seconds()) - mu) / z99
	if sigma <= 0 {
		return m.Median
	}
	z := gaussian(rng)
	return time.Duration(math.Exp(mu+sigma*z) * float64(time.Second))
}

// gaussian draws a standard normal variate via Box-Muller.
func gaussian(rng *stats.RNG) float64 {
	u1 := rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
