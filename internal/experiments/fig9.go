package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// Fig9Result is the routing-policy compliance survey (Fig. 9): across
// configurations, the distribution of the fraction of ASes following the
// best-relationship criterion, and of the fraction following both
// best-relationship and shortest-path (the Gao-Rexford model). The paper
// concludes most ASes follow a well-defined, known behaviour.
type Fig9Result struct {
	// BestRel[c] is the fraction of audited ASes following the
	// best-relationship criterion in configuration c; GaoRexford[c] the
	// fraction following both criteria.
	BestRel, GaoRexford []float64
	// MeanBestRel and MeanGaoRexford are the across-config means.
	MeanBestRel, MeanGaoRexford float64
}

// Fig9 audits every configuration of the default campaign.
func Fig9(lab *Lab) *Fig9Result {
	return complianceSurvey(lab.World.Platform.Engine(), lab.Campaign.Outcomes)
}

// complianceSurvey audits each outcome of eng's configurations.
func complianceSurvey(eng *bgp.Engine, outs []*bgp.Outcome) *Fig9Result {
	res := &Fig9Result{}
	for _, out := range outs {
		audit := eng.Audit(out)
		res.BestRel = append(res.BestRel, audit.FracBestRel())
		res.GaoRexford = append(res.GaoRexford, audit.FracGaoRexford())
	}
	res.MeanBestRel, res.MeanGaoRexford = stats.Mean(res.BestRel), stats.Mean(res.GaoRexford)
	return res
}

// compliancePoint is one step of the CDF Fig. 9 plots: the fraction of
// configurations whose compliance is at most Compliance.
type compliancePoint struct {
	Compliance, CumFrac float64
}

// complianceCDF returns the step CDF of per-configuration compliance
// fractions, one point per distinct value in increasing order.
func complianceCDF(xs []float64) []compliancePoint {
	ccdf := stats.CCDF(xs)
	if len(ccdf) == 0 {
		return nil
	}
	out := make([]compliancePoint, len(ccdf))
	for i, pt := range ccdf {
		// CCDF gives P[X >= x]; CDF at x is 1 - P[X > x]. Using the next
		// point's fraction keeps step-function semantics.
		cum := 1.0
		if i+1 < len(ccdf) {
			cum = 1 - ccdf[i+1].Frac
		}
		out[i] = compliancePoint{Compliance: pt.Value, CumFrac: cum}
	}
	return out
}

// String renders both CDFs.
func (r *Fig9Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9: fraction of ASes following well-known routing policies\n")
	fmt.Fprintf(&sb, "  mean compliance: best relationship %.3f, best relationship & shortest %.3f\n",
		r.MeanBestRel, r.MeanGaoRexford)
	render := func(name string, pts []compliancePoint) {
		fmt.Fprintf(&sb, "  %s:\n", name)
		step := len(pts)/12 + 1
		for i := 0; i < len(pts); i += step {
			fmt.Fprintf(&sb, "    compliance<=%.3f cumfrac=%.3f\n", pts[i].Compliance, pts[i].CumFrac)
		}
	}
	render("best relationship", complianceCDF(r.BestRel))
	render("best relationship & shortest", complianceCDF(r.GaoRexford))
	return sb.String()
}
