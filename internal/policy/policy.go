// Package policy runs the routing-policy compliance survey of Fig. 9:
// across announcement configurations, what fraction of ASes follow the
// best-relationship criterion, and what fraction additionally follow
// shortest-path (the Gao-Rexford model)?
package policy

import (
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// Survey holds per-configuration compliance fractions.
type Survey struct {
	// BestRel[c] is the fraction of evaluated ASes following the
	// best-relationship criterion in configuration c.
	BestRel []float64
	// GaoRexford[c] is the fraction following both criteria.
	GaoRexford []float64
}

// Add audits one configuration outcome and appends its fractions.
func (s *Survey) Add(e *bgp.Engine, out *bgp.Outcome) {
	audit := e.Audit(out)
	s.BestRel = append(s.BestRel, audit.FracBestRel())
	s.GaoRexford = append(s.GaoRexford, audit.FracGaoRexford())
}

// CDF is the cumulative distribution Fig. 9 plots: for each observed
// compliance fraction x, the fraction of configurations with compliance
// at most x. Returned as (x, y) pairs sorted by x.
type CDFPoint struct {
	Compliance float64
	CumFrac    float64
}

// BestRelCDF returns the distribution of best-relationship compliance
// across configurations.
func (s *Survey) BestRelCDF() []CDFPoint { return cdf(s.BestRel) }

// GaoRexfordCDF returns the distribution of full Gao-Rexford compliance
// across configurations.
func (s *Survey) GaoRexfordCDF() []CDFPoint { return cdf(s.GaoRexford) }

func cdf(xs []float64) []CDFPoint {
	ccdf := stats.CCDF(xs)
	if len(ccdf) == 0 {
		return nil
	}
	out := make([]CDFPoint, len(ccdf))
	for i, pt := range ccdf {
		// CCDF gives P[X >= x]; CDF at x is 1 - P[X > x]. Using the next
		// point's fraction keeps step-function semantics.
		cum := 1.0
		if i+1 < len(ccdf) {
			cum = 1 - ccdf[i+1].Frac
		}
		out[i] = CDFPoint{Compliance: pt.Value, CumFrac: cum}
	}
	return out
}

// Summary reports the mean compliance across configurations.
func (s *Survey) Summary() (meanBestRel, meanGaoRexford float64) {
	return stats.Mean(s.BestRel), stats.Mean(s.GaoRexford)
}
