// Package experiments contains one driver per table and figure of the
// paper's evaluation (§V). Each driver consumes a Lab — a built world
// plus a fully deployed and measured default campaign — and returns a
// result struct that renders the same rows or series the paper reports.
// cmd/spooftrack prints every driver's result; the examples and the
// integration tests share them.
package experiments

import (
	"context"

	"spooftrack/internal/core"
	"spooftrack/internal/sched"
	"spooftrack/internal/topo"
)

// Lab bundles the world and the default three-phase campaign all
// experiments analyze.
type Lab struct {
	World    *core.World
	Plan     []sched.PlannedConfig
	Campaign *core.Campaign
}

// LabParams sizes a lab.
type LabParams struct {
	Seed uint64
	// NumASes overrides the topology size (0 = default 4000).
	NumASes int
	// NumProbes overrides the probe count (0 = default 1600).
	NumProbes int
	// NumCollectors overrides the collector count (0 = default 250).
	NumCollectors int
	// MaxPoisonTargets overrides the poison-phase size (0 = paper's 347).
	MaxPoisonTargets int
	// UseTruth bypasses the measurement pipeline (faster; used by tests
	// that only exercise the analysis).
	UseTruth bool
	// Progress, if non-nil, receives deployment progress.
	Progress func(done, total int)
	// Ctx, if non-nil, cancels the campaign deployment early.
	Ctx context.Context
}

// NewLab builds a world and runs the default campaign.
func NewLab(p LabParams) (*Lab, error) {
	wp := core.DefaultWorldParams(p.Seed)
	if p.NumASes > 0 {
		tp := topo.DefaultGenParams(p.Seed)
		tp.NumASes = p.NumASes
		wp.Topo = &tp
	}
	if p.NumProbes > 0 {
		wp.NumProbes = p.NumProbes
	}
	if p.NumCollectors > 0 {
		wp.NumCollectors = p.NumCollectors
	}
	if p.MaxPoisonTargets > 0 {
		wp.MaxPoisonTargets = p.MaxPoisonTargets
	}
	w, err := core.BuildWorld(wp)
	if err != nil {
		return nil, err
	}
	plan, err := w.DefaultPlan()
	if err != nil {
		return nil, err
	}
	camp, err := w.RunCampaign(plan, core.CampaignOptions{UseTruth: p.UseTruth, Progress: p.Progress, Ctx: p.Ctx})
	if err != nil {
		return nil, err
	}
	return &Lab{World: w, Plan: plan, Campaign: camp}, nil
}
