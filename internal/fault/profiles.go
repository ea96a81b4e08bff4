package fault

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profile names one chaos scenario: a bundle of per-site fault
// probabilities. The zero Profile injects nothing.
type Profile struct {
	// Name identifies the profile (spooftrackd -fault-profile).
	Name string `json:"name"`
	// Desc is a one-line operator-facing description.
	Desc string `json:"desc,omitempty"`

	// PrDeployFail is the probability a deployment attempt fails
	// outright (mux unreachable, announcement rejected).
	PrDeployFail float64 `json:"pr_deploy_fail,omitempty"`
	// PrMeasureFail is the probability a measurement attempt is lost.
	PrMeasureFail float64 `json:"pr_measure_fail,omitempty"`
	// PrLinkFlap is the per-link, per-attempt probability of a flap
	// (feeds the platform's link-health breaker).
	PrLinkFlap float64 `json:"pr_link_flap,omitempty"`
	// PrTapDrop is the per-packet probability an event-tap delivery is
	// lost.
	PrTapDrop float64 `json:"pr_tap_drop,omitempty"`
	// PrProbeLoss is the per-probe probability an active spoof probe is
	// lost beyond the probe network's own loss model.
	PrProbeLoss float64 `json:"pr_probe_loss,omitempty"`
	// DeployLatency is the mean injected per-attempt deployment delay
	// (each attempt sleeps 0.5–1.5× this; slow BGP convergence).
	DeployLatency time.Duration `json:"deploy_latency,omitempty"`
	// ProbeLatency is the mean injected per-probe delay on the active
	// spoof-probing path (each probe sleeps 0.5–1.5× this; congested or
	// rate-limited reflectors).
	ProbeLatency time.Duration `json:"probe_latency,omitempty"`
	// HideVisibility is the fraction of observed sources hidden from an
	// otherwise successful catchment measurement.
	HideVisibility float64 `json:"hide_visibility,omitempty"`
	// PrPartition is the per-attempt probability an RPC between two
	// sharded-ingest nodes is blackholed (retries re-roll and heal
	// transient partitions).
	PrPartition float64 `json:"pr_partition,omitempty"`
	// PrSplitBrain is the per-term probability the controller spuriously
	// loses its leadership lease at renewal, forcing abdication and a
	// fenced re-election.
	PrSplitBrain float64 `json:"pr_split_brain,omitempty"`
}

// builtins are the named scenario profiles, ordered mild to severe.
var builtins = []Profile{
	{
		Name:          "flaky-mux",
		Desc:          "PEERING muxes fail deployments and links flap mid-campaign",
		PrDeployFail:  0.30,
		PrLinkFlap:    0.12,
		DeployLatency: 500 * time.Microsecond,
	},
	{
		Name:          "slow-converge",
		Desc:          "BGP convergence drags; measurement windows close before routes settle",
		PrMeasureFail: 0.25,
		DeployLatency: 2 * time.Millisecond,
	},
	{
		Name:           "feed-gap",
		Desc:           "catchment measurements are lost or miss sources, and half the active spoof probes go unanswered",
		PrMeasureFail:  0.15,
		PrProbeLoss:    0.50,
		HideVisibility: 0.15,
	},
	{
		Name:      "tap-drop",
		Desc:      "per-packet events are lost between the honeypot tap and the pipeline",
		PrTapDrop: 0.25,
	},
	{
		Name:         "probe-storm",
		Desc:         "active spoof probes are mostly lost and the survivors crawl",
		PrProbeLoss:  0.85,
		ProbeLatency: 20 * time.Microsecond,
	},
	{
		Name:         "netsplit",
		Desc:         "the ingest tier partitions: shard RPCs blackhole and the controller lease flaps",
		PrPartition:  0.35,
		PrSplitBrain: 0.20,
	},
	{
		Name:           "chaos",
		Desc:           "deploy, measurement, probe and tap faults at once, at moderate rates (ingest-tier faults are netsplit's)",
		PrDeployFail:   0.20,
		PrMeasureFail:  0.15,
		PrLinkFlap:     0.08,
		PrTapDrop:      0.10,
		PrProbeLoss:    0.30,
		DeployLatency:  300 * time.Microsecond,
		HideVisibility: 0.05,
	},
}

// Profiles returns the built-in scenario profiles, mild to severe.
func Profiles() []Profile {
	out := make([]Profile, len(builtins))
	copy(out, builtins)
	return out
}

// Names returns the built-in profile names, sorted.
func Names() []string {
	out := make([]string, len(builtins))
	for i, p := range builtins {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

// ProfileByName resolves a built-in profile. The empty string and
// "none" resolve to the zero profile (no injection).
func ProfileByName(name string) (Profile, error) {
	if name == "" || name == "none" {
		return Profile{Name: "none"}, nil
	}
	for _, p := range builtins {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("fault: unknown profile %q (built-ins: %s)", name, strings.Join(Names(), ", "))
}
