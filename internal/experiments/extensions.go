package experiments

// Extension experiments: the paper's future-work directions (§V-B, §V-C,
// §VIII) implemented and evaluated on the same campaign as the main figures.

import (
	"fmt"
	"strings"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/sched"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// ExtPredictionResult evaluates catchment prediction (§V-C, building on
// Sermpezis & Kotronis): a noise-free Gao-Rexford model predicts each
// configuration's catchments without deploying it; agreement with the
// true catchments bounds how much measurement the technique could skip.
type ExtPredictionResult struct {
	// AgreementPerConfig is, per configuration, the fraction of routed
	// ASes whose predicted catchment matches the truth.
	AgreementPerConfig []float64
	// Mean agreement across configurations.
	Mean float64
}

// ExtPrediction runs the predictor against every campaign configuration,
// taking each true outcome from the platform and releasing it once read.
func ExtPrediction(camp *core.Campaign) (*ExtPredictionResult, error) {
	plat := camp.World.Platform
	pred, err := sched.NewPredictor(camp.World.Graph, plat.Engine().Origin())
	if err != nil {
		return nil, err
	}
	res := &ExtPredictionResult{}
	for _, pc := range camp.Plan {
		vec, err := pred.Predict(pc.Config)
		if err != nil {
			return nil, err
		}
		out, err := plat.Propagate(pc.Config)
		if err != nil {
			return nil, err
		}
		match, total := 0, 0
		for as := 0; as < camp.World.Graph.NumASes(); as++ {
			truth := out.CatchmentOf(as)
			if truth == bgp.NoLink {
				continue
			}
			total++
			if vec[as] == truth {
				match++
			}
		}
		out.Release()
		if total > 0 {
			res.AgreementPerConfig = append(res.AgreementPerConfig, float64(match)/float64(total))
		}
	}
	res.Mean = stats.Mean(res.AgreementPerConfig)
	return res, nil
}

// String renders the prediction study.
func (r *ExtPredictionResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: catchment prediction accuracy (§V-C)\n")
	fmt.Fprintf(&sb, "  mean agreement with true catchments: %.3f\n", r.Mean)
	s := stats.Summarize(r.AgreementPerConfig)
	fmt.Fprintf(&sb, "  p25=%.3f median=%.3f p75=%.3f over %d configurations\n", s.P25, s.P50, s.P75, s.N)
	return sb.String()
}

// ExtTargetedPoisonResult evaluates targeted poisoning of shared
// upstreams to split large clusters (§V-B future work): for every final
// cluster above a size threshold, poison the transit AS its members'
// paths share most, and measure how much the extra configurations shrink
// the partition.
type ExtTargetedPoisonResult struct {
	// ExtraConfigs is how many targeted configurations were generated.
	ExtraConfigs int
	// Before/After summarize the partition around the targeted phase.
	BeforeMean, AfterMean float64
	BeforeMax, AfterMax   int
	// LargeBefore/LargeAfter count clusters above the threshold.
	Threshold               int
	LargeBefore, LargeAfter int
}

// ExtTargetedPoison generates and deploys the targeted plan on the
// platform, measuring each configuration through the standard pipeline.
func ExtTargetedPoison(camp *core.Campaign, threshold int) (*ExtTargetedPoisonResult, error) {
	plat := camp.World.Platform
	part := camp.FinalPartition()
	// The baseline anycast outcome guides targeting.
	baseOut, err := plat.Propagate(camp.Plan[0].Config)
	if err != nil {
		return nil, err
	}
	plan := sched.TargetedPoisonPlan(baseOut, part, camp.Sources, threshold, plat.NumLinks())
	baseOut.Release()
	res := &ExtTargetedPoisonResult{
		ExtraConfigs: len(plan),
		Threshold:    threshold,
	}
	m := part.Summarize()
	res.BeforeMean, res.BeforeMax = m.MeanSize, m.MaxSize
	for _, s := range part.Sizes() {
		if s >= threshold {
			res.LargeBefore++
		}
	}

	refined := part.Clone()
	rng := stats.NewRNG(camp.World.Params.Seed ^ 0x7a26e7ed)
	for i, pc := range plan {
		out, err := plat.Deploy(pc.Config)
		if err != nil {
			return nil, err
		}
		labels := make([]bgp.LinkID, len(camp.Sources))
		if camp.Measurements != nil {
			mm, err := camp.World.MeasureOutcome(out, camp.NumConfigs()+i, rng.Split())
			if err != nil {
				return nil, err
			}
			for k, src := range camp.Sources {
				labels[k] = mm.Catchment[src]
			}
		} else {
			for k, src := range camp.Sources {
				labels[k] = out.CatchmentOf(src)
			}
		}
		out.Release()
		refined.Refine(labels)
	}
	m2 := refined.Summarize()
	res.AfterMean, res.AfterMax = m2.MeanSize, m2.MaxSize
	for _, s := range refined.Sizes() {
		if s >= threshold {
			res.LargeAfter++
		}
	}
	return res, nil
}

// String renders the targeted-poisoning study.
func (r *ExtTargetedPoisonResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: targeted poisoning of large clusters (§V-B)\n")
	fmt.Fprintf(&sb, "  targeted configurations: %d (threshold %d ASes)\n", r.ExtraConfigs, r.Threshold)
	fmt.Fprintf(&sb, "  mean cluster size: %.2f -> %.2f\n", r.BeforeMean, r.AfterMean)
	fmt.Fprintf(&sb, "  largest cluster:   %d -> %d\n", r.BeforeMax, r.AfterMax)
	fmt.Fprintf(&sb, "  clusters >= %d:    %d -> %d\n", r.Threshold, r.LargeBefore, r.LargeAfter)
	return sb.String()
}

// ExtCommunitiesResult compares the poisoning phase against an
// equally-sized community-based phase (§VIII future work): starting from
// the partition after locations+prepending, which technique splits more?
// Communities sidestep loop-prevention opt-outs and tier-1 route-leak
// filters, but only work at providers that implement action communities.
type ExtCommunitiesResult struct {
	// BaseMean is the mean cluster size after locations+prepending.
	BaseMean float64
	// PoisonMean and CommunityMean are the means after additionally
	// applying each technique's configurations.
	PoisonMean, CommunityMean float64
	// NumConfigs is the per-technique configuration count compared.
	NumConfigs int
}

// ExtCommunities deploys a community plan matched in size to the
// campaign's poisoning phase and compares marginal refinement. Both
// techniques refine from the end-of-prepending partition; catchments are
// read from the routing engine (technique comparison, not measurement
// evaluation).
func ExtCommunities(camp *core.Campaign) (*ExtCommunitiesResult, error) {
	prependEnd := sched.PhaseEnd(camp.Plan, sched.PhasePrepending)
	base := camp.PartitionAfter(prependEnd)
	res := &ExtCommunitiesResult{BaseMean: base.Summarize().MeanSize}

	// Poison branch: the campaign already holds these catchments.
	poisonPart := base.Clone()
	for i := prependEnd; i < camp.NumConfigs(); i++ {
		poisonPart.Refine(camp.Catchments[i])
	}
	res.PoisonMean = poisonPart.Summarize().MeanSize
	res.NumConfigs = camp.NumConfigs() - prependEnd

	// Community branch: same (link, neighbor) targets, expressed as
	// no-export communities at the providers.
	g := camp.World.Graph
	providerOf := make(map[bgp.LinkID]topo.ASN)
	for l, m := range camp.World.Platform.Muxes() {
		providerOf[bgp.LinkID(l)] = g.ASN(m.Provider)
	}
	targets := make(map[bgp.LinkID][]topo.ASN)
	count := 0
	for i := prependEnd; i < camp.NumConfigs(); i++ {
		for _, a := range camp.Plan[i].Config.Anns {
			for _, p := range a.Poison {
				targets[a.Link] = append(targets[a.Link], p)
				count++
			}
		}
	}
	if count == 0 {
		return res, nil
	}
	plan := sched.CommunityPlan(camp.World.Platform.NumLinks(), providerOf, targets)
	commPart := base.Clone()
	for _, pc := range plan {
		out, err := camp.World.Platform.Deploy(pc.Config)
		if err != nil {
			return nil, err
		}
		labels := make([]bgp.LinkID, len(camp.Sources))
		for k, src := range camp.Sources {
			labels[k] = out.CatchmentOf(src)
		}
		out.Release()
		commPart.Refine(labels)
	}
	res.CommunityMean = commPart.Summarize().MeanSize
	return res, nil
}

// String renders the technique comparison.
func (r *ExtCommunitiesResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: export-control communities vs. poisoning (§VIII)\n")
	fmt.Fprintf(&sb, "  base mean after locations+prepending: %.2f ASes\n", r.BaseMean)
	fmt.Fprintf(&sb, "  after %d poisoning configs:  %.2f ASes\n", r.NumConfigs, r.PoisonMean)
	fmt.Fprintf(&sb, "  after %d community configs:  %.2f ASes\n", r.NumConfigs, r.CommunityMean)
	return sb.String()
}

// ExtRemediationResult evaluates the notification campaign the paper
// motivates (§I): starting from partial BCP38 deployment, each round
// localizes the realizable spoofed traffic, notifies the candidate
// networks (modeled as them deploying ingress filtering), and measures
// the residual attack volume.
type ExtRemediationResult struct {
	// InitialDeployedFrac is the pre-campaign BCP38 deployment level.
	InitialDeployedFrac float64
	// Steps is the per-round trajectory.
	Steps []spoof.RemediationStep
	// TotalNotified is the cumulative notification count.
	TotalNotified int
}

// ExtRemediation runs the loop over the campaign's catchments with a
// Pareto-placed botnet restricted to non-filtering networks.
func ExtRemediation(camp *core.Campaign, deployFrac float64, nBots, maxRounds int) (*ExtRemediationResult, error) {
	const notifyPerRound = 25 // realistic per-round outreach budget
	n := camp.NumSources()
	seed := camp.World.Params.Seed
	model, err := spoof.NewBCP38Model(n, deployFrac, seed)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed ^ 0x2e3ed1a7e)
	placement := spoof.PlacePareto(rng, n, nBots)
	res := &ExtRemediationResult{InitialDeployedFrac: model.DeployedFrac()}
	res.Steps = spoof.Remediate(camp.Catchments, placement, model,
		camp.World.Platform.NumLinks(), maxRounds, notifyPerRound)
	for _, s := range res.Steps {
		res.TotalNotified += s.NotifiedASCount
	}
	return res, nil
}

// String renders the remediation trajectory.
func (r *ExtRemediationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: localization-driven BCP38 notification campaign (§I)\n")
	fmt.Fprintf(&sb, "  initial deployment: %.0f%% of networks filter spoofed traffic\n", r.InitialDeployedFrac*100)
	for _, s := range r.Steps {
		fmt.Fprintf(&sb, "  round %d: notified %d network(s), residual attack volume %.1f%%\n",
			s.Round, s.NotifiedASCount, s.ResidualFrac*100)
	}
	fmt.Fprintf(&sb, "  total notifications: %d\n", r.TotalNotified)
	return sb.String()
}

// ExtSpeedResult evaluates localization wall-clock time (§V-C): how long
// until the mean cluster size drops below a target, for random vs. greedy
// schedules and for 1, 2, and 4 concurrently announced prefixes.
type ExtSpeedResult struct {
	TargetMean float64
	// ConfigsRandom/ConfigsGreedy are the configuration counts needed.
	ConfigsRandom, ConfigsGreedy int
	// Times[k] is the wall-clock time with k prefixes (keys 1, 2, 4)
	// using the greedy schedule.
	Times map[int]time.Duration
	// TimeRandomSingle is the single-prefix random-schedule time.
	TimeRandomSingle time.Duration
}

// ExtSpeed computes time-to-target localization for the campaign.
func ExtSpeed(camp *core.Campaign, targetMean float64, seed uint64) *ExtSpeedResult {
	catchments := camp.Catchments
	res := &ExtSpeedResult{TargetMean: targetMean, Times: map[int]time.Duration{}}
	slot := camp.World.Platform.Constraints().ConfigDuration

	greedy, _ := sched.GreedyTrajectory(catchments, 0)
	res.ConfigsGreedy = firstBelow(greedy, targetMean)
	random := sched.RandomTrajectory(catchments, stats.NewRNG(seed))
	res.ConfigsRandom = firstBelow(random, targetMean)

	if res.ConfigsRandom > 0 {
		res.TimeRandomSingle = time.Duration(res.ConfigsRandom) * slot
	}
	if res.ConfigsGreedy > 0 {
		for _, k := range []int{1, 2, 4} {
			slots := (res.ConfigsGreedy + k - 1) / k
			res.Times[k] = time.Duration(slots) * slot
		}
	}
	return res
}

// firstBelow returns the 1-based index of the first trajectory value at
// or below the target, or 0 if never reached.
func firstBelow(tr sched.Trajectory, target float64) int {
	for i, v := range tr {
		if v <= target {
			return i + 1
		}
	}
	return 0
}

// String renders the speed study.
func (r *ExtSpeedResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: localization speed to mean cluster size <= %.1f (§V-C)\n", r.TargetMean)
	fmt.Fprintf(&sb, "  random schedule: %d configurations (%s, 1 prefix)\n", r.ConfigsRandom, r.TimeRandomSingle)
	fmt.Fprintf(&sb, "  greedy schedule: %d configurations\n", r.ConfigsGreedy)
	for _, k := range []int{1, 2, 4} {
		if d, ok := r.Times[k]; ok {
			fmt.Fprintf(&sb, "    with %d concurrent prefix(es): %s\n", k, d)
		}
	}
	return sb.String()
}
