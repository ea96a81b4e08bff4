// Package spooftrack is an open-source implementation of the
// control-plane traceback technique from "Tracking Down Sources of
// Spoofed IP Packets" (Fonseca et al., IFIP Networking 2020 / CoNEXT
// 2019): a network with multiple peering links systematically varies its
// BGP announcement configurations — anycast location subsets, AS-path
// prepending, and BGP poisoning — to manipulate which peering link each
// remote network's traffic arrives on, and correlates per-link spoofed
// traffic volumes across configurations to localize the networks
// originating spoofed packets.
//
// Because the technique requires announcement control over real peering
// links, the package ships a complete simulated substrate: a synthetic
// AS-level Internet, a Gao-Rexford policy-routing engine with anycast /
// prepending / poisoning semantics, a PEERING-platform origin model, BGP
// collectors and traceroute probes with realistic noise, and an
// AmpPot-style amplification honeypot. The same library code would drive
// a real deployment; only the substrate bindings differ.
//
// Basic usage:
//
//	tr, err := spooftrack.NewTracker(spooftrack.DefaultTrackerParams(42))
//	...
//	report := tr.LocalizeAttack(volumes) // per-config, per-link volumes
//
// See examples/ for runnable scenarios and DESIGN.md for the system
// inventory.
package spooftrack

import (
	"context"
	"fmt"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/core"
	"spooftrack/internal/fault"
	"spooftrack/internal/peering"
	"spooftrack/internal/provenance"
	"spooftrack/internal/report"
	"spooftrack/internal/sched"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// Re-exported core types. The internal packages carry the
// implementation; these aliases form the supported public API.
type (
	// ASN is an autonomous system number.
	ASN = topo.ASN
	// Graph is an AS-level topology.
	Graph = topo.Graph
	// GenParams configures the synthetic Internet generator.
	GenParams = topo.GenParams
	// LinkID identifies one of the origin's peering links.
	LinkID = bgp.LinkID
	// Announcement is a per-link prefix announcement.
	Announcement = bgp.Announcement
	// Config is an announcement configuration ⟨A; P; Q⟩.
	Config = bgp.Config
	// Outcome is a converged routing state.
	Outcome = bgp.Outcome
	// WorldParams sizes the simulated world.
	WorldParams = core.WorldParams
	// World is the simulated environment.
	World = core.World
	// Campaign is a deployed and measured announcement campaign.
	Campaign = core.Campaign
	// CampaignOptions tunes campaign execution.
	CampaignOptions = core.CampaignOptions
	// PlannedConfig is one configuration with its generating phase.
	PlannedConfig = sched.PlannedConfig
	// Phase identifies the generating technique of a configuration.
	Phase = sched.Phase
	// Partition is a cluster partition of the sources.
	Partition = cluster.Partition
	// Metrics summarizes a partition.
	Metrics = cluster.Metrics
	// Placement is a spoofed-traffic source placement.
	Placement = spoof.Placement
	// MuxSpec names a PoP and its transit provider.
	MuxSpec = peering.MuxSpec
	// RNG is the deterministic random number generator used throughout.
	RNG = stats.RNG
	// EvidenceReport documents per-candidate localization evidence for
	// operator notification (§I).
	EvidenceReport = report.Report
	// FaultProfile is a named fault-injection scenario.
	FaultProfile = fault.Profile
	// FaultInjector is the deterministic, seed-driven fault injector.
	FaultInjector = fault.Injector
	// ProvenanceLedger is the append-only decision-provenance ledger:
	// it records every input that shaped a localization verdict and
	// replays verdicts deterministically (internal/provenance).
	ProvenanceLedger = provenance.Ledger
)

// NewProvenanceLedger returns an enabled decision-provenance ledger.
// Pass it through TrackerParams.Ledger and stream.Config.Ledger; keep a
// nil *ProvenanceLedger to run with provenance off at ≈zero cost.
func NewProvenanceLedger() *ProvenanceLedger {
	return provenance.New(provenance.Options{})
}

// Phase constants.
const (
	PhaseLocations  = sched.PhaseLocations
	PhasePrepending = sched.PhasePrepending
	PhasePoisoning  = sched.PhasePoisoning
)

// NoLink marks ASes without a route.
const NoLink = bgp.NoLink

// PEERINGASN is the origin AS number used by the platform model.
const PEERINGASN = peering.PEERINGASN

// TableI lists the seven PoPs the paper's experiments used.
var TableI = peering.TableI

// DefaultWorldParams returns a paper-scale world configuration.
func DefaultWorldParams(seed uint64) WorldParams { return core.DefaultWorldParams(seed) }

// BuildWorld constructs a simulated world.
func BuildWorld(p WorldParams) (*World, error) { return core.BuildWorld(p) }

// GenerateTopology builds a synthetic AS-level Internet.
func GenerateTopology(p GenParams) (*Graph, error) { return topo.Generate(p) }

// DefaultGenParams returns default topology generator parameters.
func DefaultGenParams(seed uint64) GenParams { return topo.DefaultGenParams(seed) }

// FaultProfileNames lists the built-in fault scenario names.
func FaultProfileNames() []string { return fault.Names() }

// NewRNG returns a deterministic generator for the seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// TrackerParams configures a Tracker.
type TrackerParams struct {
	// World sizes the simulated environment.
	World WorldParams
	// UseTruth bypasses the measurement pipeline (faster, noise-free).
	UseTruth bool
	// Progress, if non-nil, receives campaign deployment progress.
	Progress func(done, total int)
	// Ctx, if non-nil, cancels the campaign deployment early.
	Ctx context.Context
	// FaultProfile names a fault-injection scenario (see
	// FaultProfileNames); "" or "none" disables injection. With one set,
	// the campaign retries faulted deployments and measurements on
	// core.DefaultRetryPolicy's schedule and degrades what stays lost;
	// without, nothing faults and nothing is retried.
	FaultProfile string
	// FaultSeed seeds the deterministic injector; the same
	// (profile, seed) pair yields the same fault schedule.
	FaultSeed uint64
	// Ledger, if non-nil, records campaign provenance (deployments,
	// retries, degradations, catchment rows, the campaign verdict) and
	// link-quarantine transitions. Nil disables provenance.
	Ledger *ProvenanceLedger
}

// DefaultTrackerParams returns paper-scale tracker parameters.
func DefaultTrackerParams(seed uint64) TrackerParams {
	return TrackerParams{World: core.DefaultWorldParams(seed)}
}

// Tracker is the high-level entry point: it owns a world and a deployed
// default campaign, and answers localization queries against them.
type Tracker struct {
	World    *World
	Plan     []PlannedConfig
	Campaign *Campaign
	// Fault is the active injector, or nil when no fault profile was
	// requested.
	Fault *FaultInjector
}

// NewTracker builds the world, generates the paper's three-phase plan,
// deploys it, and measures catchments. This is the offline preparation
// step an origin AS performs before attacks occur (§V-C).
func NewTracker(p TrackerParams) (*Tracker, error) {
	w, err := core.BuildWorld(p.World)
	if err != nil {
		return nil, err
	}
	plan, err := w.DefaultPlan()
	if err != nil {
		return nil, err
	}
	prof, err := fault.ProfileByName(p.FaultProfile)
	if err != nil {
		return nil, err
	}
	opts := core.CampaignOptions{
		UseTruth: p.UseTruth,
		Progress: p.Progress,
		Ctx:      p.Ctx,
		Ledger:   p.Ledger,
	}
	if led := p.Ledger; led.Enabled() {
		// Quarantine transitions feed the ledger from the first campaign
		// deployment on — breaker trips during the offline campaign are
		// part of the verdict's evidence chain.
		w.Platform.Health().SetTransitionHook(func(link bgp.LinkID, from, to peering.BreakerState) {
			led.RecordQuarantine(provenance.QuarantineEvent{Link: int(link), From: from.String(), To: to.String()})
		})
	}
	var inj *fault.Injector
	if prof.Name != "" && prof.Name != "none" {
		// Injecting faults without retries would make every transient
		// error fatal.
		opts.Retry = core.DefaultRetryPolicy()
		inj = fault.New(prof, p.FaultSeed, w.Platform.NumLinks())
		w.Platform.SetFaultHook(inj)
		opts.MeasureFault = inj
	}
	camp, err := w.RunCampaign(plan, opts)
	if err != nil {
		return nil, err
	}
	return &Tracker{World: w, Plan: plan, Campaign: camp, Fault: inj}, nil
}

// Clusters returns the final partition of sources after the whole
// campaign.
func (t *Tracker) Clusters() *Partition { return t.Campaign.FinalPartition() }

// Summary returns the final partition metrics (mean cluster size,
// singleton fraction, ...).
func (t *Tracker) Summary() Metrics { return t.Clusters().Summarize() }

// SourceASNs returns the ASNs of the sources under analysis.
func (t *Tracker) SourceASNs() []ASN {
	g := t.World.Graph
	out := make([]ASN, len(t.Campaign.Sources))
	for i, src := range t.Campaign.Sources {
		out[i] = g.ASN(src)
	}
	return out
}

// LocalizationReport is the outcome of correlating measured volumes.
type LocalizationReport struct {
	// CandidateASNs are the networks consistent with the observed
	// per-link traffic across every configuration.
	CandidateASNs []ASN
	// CandidateIndexes are the same candidates as source positions.
	CandidateIndexes []int
}

// LocalizeAttack correlates per-configuration, per-link spoofed-traffic
// volumes (volumes[c][l], as an amplification honeypot would report for
// configuration c) with the campaign's measured catchments, returning
// the candidate source networks (§III-C).
func (t *Tracker) LocalizeAttack(volumes [][]float64) (*LocalizationReport, error) {
	if len(volumes) != t.Campaign.NumConfigs() {
		return nil, fmt.Errorf("spooftrack: %d volume rows for %d configurations",
			len(volumes), t.Campaign.NumConfigs())
	}
	idx := spoof.Localize(t.Campaign.Catchments, volumes)
	rep := &LocalizationReport{CandidateIndexes: idx}
	g := t.World.Graph
	for _, k := range idx {
		rep.CandidateASNs = append(rep.CandidateASNs, g.ASN(t.Campaign.Sources[k]))
	}
	return rep, nil
}

// Evidence builds the operator-facing notification report for an
// attack's measured volumes: per candidate, the volume share its links
// carried, how many configurations corroborate it, and the cluster
// bounding localization precision (§I's "drive adoption of best
// practices" use case).
func (t *Tracker) Evidence(volumes [][]float64) (*EvidenceReport, error) {
	loc, err := t.LocalizeAttack(volumes)
	if err != nil {
		return nil, err
	}
	g := t.World.Graph
	return report.Build(report.Input{
		Sources:          t.Campaign.Sources,
		ASNOf:            g.ASN,
		Catchments:       t.Campaign.Catchments,
		Volumes:          volumes,
		Partition:        t.Clusters(),
		CandidateIndexes: loc.CandidateIndexes,
	})
}

// SimulateAttack produces the per-configuration link volumes a honeypot
// would measure if the given placement of spoofing hosts attacked while
// each campaign configuration was deployed. Useful for evaluation and
// examples; a real deployment gets these volumes from its honeypot.
func (t *Tracker) SimulateAttack(p Placement) [][]float64 {
	numLinks := t.World.Platform.NumLinks()
	out := make([][]float64, len(t.Campaign.Catchments))
	for c, catchment := range t.Campaign.Catchments {
		out[c] = spoof.LinkVolumes(catchment, p, numLinks)
	}
	return out
}

// PlaceSingleSource returns a placement with one attacking source,
// chosen uniformly.
func (t *Tracker) PlaceSingleSource(rng *RNG) Placement {
	return spoof.PlaceSingle(rng, t.Campaign.NumSources())
}

// PlaceUniformSources places nBots uniformly across sources.
func (t *Tracker) PlaceUniformSources(rng *RNG, nBots int) Placement {
	return spoof.PlaceUniform(rng, t.Campaign.NumSources(), nBots)
}

// PlaceParetoSources places nBots with Pareto 80/20 concentration.
func (t *Tracker) PlaceParetoSources(rng *RNG, nBots int) Placement {
	return spoof.PlacePareto(rng, t.Campaign.NumSources(), nBots)
}
