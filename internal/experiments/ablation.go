package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/sched"
	"spooftrack/internal/topo"
)

// Ablation is one design knob flipped on an otherwise fixed world: the
// final mean cluster size of the default plan's campaign with the knob
// as the default world sets it (Base) and flipped (Alt), and how many
// source ASes each campaign clustered.
type Ablation struct {
	Knob                    string
	Seed                    uint64
	BaseName, AltName       string
	Base, Alt               float64
	BaseSources, AltSources int
}

// AblationResult holds one Ablation per knob DESIGN.md calls out.
type AblationResult struct {
	Rows []Ablation
}

// ablationRun is one campaign of an ablation.
type ablationRun struct {
	world core.WorldParams
	opts  core.CampaignOptions
	plan  func([]sched.PlannedConfig) []sched.PlannedConfig
}

// ablationKnobs lists the knobs in the order Ablations runs them; knob k
// runs on seed 100+k. Every base campaign but the wire-feed one uses true
// catchments, isolating the knob from measurement noise.
var ablationKnobs = []struct {
	knob, base, alt string
	truth           bool
	flip            func(r *ablationRun)
}{
	{"measurement pipeline", "truth", "measured", true, func(r *ablationRun) {
		r.opts.UseTruth = false
	}},
	{"policy noise and length-blind ASes", "noisy", "textbook", true, func(r *ablationRun) {
		e := bgp.DefaultParams(r.world.Seed)
		e.PolicyNoiseFrac, e.LengthBlindFrac = 0, 0
		r.world.Engine = &e
	}},
	{"tier-1 filter and poison-ignoring ASes", "filtered", "unfiltered", true, func(r *ablationRun) {
		e := bgp.DefaultParams(r.world.Seed)
		e.Tier1PoisonFilter, e.IgnorePoisonFrac = false, 0
		r.world.Engine = &e
	}},
	{"prepend depth", "x4", "x1", true, func(r *ablationRun) {
		r.plan = prependOnce
	}},
	{"collector feeds", "direct", "MRT round trip", false, func(r *ablationRun) {
		r.world.WireFeeds = true
	}},
}

// Ablations re-runs the default plan on reduced worlds (1200 ASes, 100
// collectors, 400 probes, a 40-target poisoning phase), each knob on its
// own seed, once as the default world has it and once flipped, and
// reports both campaigns' final mean cluster sizes and source counts. It
// builds no paper-scale lab.
func Ablations() (*AblationResult, error) {
	res := &AblationResult{}
	for k, knob := range ablationKnobs {
		seed := uint64(100 + k)
		base := ablationRun{world: ablationWorld(seed), opts: core.CampaignOptions{UseTruth: knob.truth}}
		alt := base
		knob.flip(&alt)
		row := Ablation{Knob: knob.knob, Seed: seed, BaseName: knob.base, AltName: knob.alt}
		var err error
		if row.Base, row.BaseSources, err = base.campaign(); err != nil {
			return nil, fmt.Errorf("experiments: ablation %q: %w", knob.knob, err)
		}
		if row.Alt, row.AltSources, err = alt.campaign(); err != nil {
			return nil, fmt.Errorf("experiments: ablation %q, %s: %w", knob.knob, knob.alt, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func ablationWorld(seed uint64) core.WorldParams {
	p := core.DefaultWorldParams(seed)
	tp := topo.DefaultGenParams(seed)
	tp.NumASes = 1200
	p.Topo = &tp
	p.NumCollectors = 100
	p.NumProbes = 400
	p.MaxPoisonTargets = 40
	return p
}

// campaign builds the run's world, deploys its plan and returns the
// final partition's mean cluster size and the number of sources it
// clusters.
func (r ablationRun) campaign() (meanSize float64, sources int, err error) {
	w, err := core.BuildWorld(r.world)
	if err != nil {
		return 0, 0, err
	}
	plan, err := w.DefaultPlan()
	if err != nil {
		return 0, 0, err
	}
	if r.plan != nil {
		plan = r.plan(plan)
	}
	camp, err := w.RunCampaign(plan, r.opts)
	if err != nil {
		return 0, 0, err
	}
	return camp.FinalPartition().Summarize().MeanSize, camp.NumSources(), nil
}

// prependOnce turns every prepended announcement of the plan into a
// single prepend, the shallow alternative to the paper's x4.
func prependOnce(plan []sched.PlannedConfig) []sched.PlannedConfig {
	out := make([]sched.PlannedConfig, len(plan))
	for i, pc := range plan {
		anns := append([]bgp.Announcement(nil), pc.Config.Anns...)
		for k := range anns {
			if anns[k].Prepend > 0 {
				anns[k].Prepend = 1
			}
		}
		pc.Config.Anns = anns
		out[i] = pc
	}
	return out
}

// String renders one row per knob.
func (r *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablations: final mean cluster size (ASes), default plan on 1200-AS worlds\n")
	for _, a := range r.Rows {
		fmt.Fprintf(&sb, "  %-40s seed %d  %s %.3f (%d sources)  %s %.3f (%d sources)\n",
			a.Knob, a.Seed, a.BaseName, a.Base, a.BaseSources, a.AltName, a.Alt, a.AltSources)
	}
	return sb.String()
}
