// Package fault is a deterministic, seed-driven fault injector for the
// campaign and streaming paths: probabilistic deploy and measurement
// errors, injected deployment latency, peering-link flaps, lost active
// probes, partial catchment visibility, event-tap drops, and ingest-tier
// partitions and lease loss. Retry is the other half: the one retry
// schedule and loop (Retry.Do) every faulted step recovers through.
//
// The paper's method only works if the origin AS keeps deploying
// configurations and measuring catchments while the real Internet
// misbehaves — BGP convergence is slow and flappy, collector feeds go
// dark, traceroutes are lost, and muxes fail mid-campaign (§V-C).
// BGPeek-a-Boo (Krupp & Rossow) makes the same argument for active BGP
// traceback: deployments must tolerate noisy, partially-failing
// measurements, not assume a clean oracle. This package is the
// misbehaving Internet: it plugs into peering.Platform (deploy faults
// and link flaps, via the platform's FaultHook), core.RunCampaign
// (measurement faults and visibility masking, via CampaignOptions), and
// the amp event taps (drops, via WrapTap).
//
// Every decision is a pure function of (seed, fault kind, site key,
// attempt) — never of execution order or wall clock — so a chaos run is
// bit-reproducible at any parallelism: the same configuration fails the
// same attempts under the same profile and seed, which is what lets the
// chaos tests assert that retried campaigns converge to the fault-free
// clusters. The only exception is the event-tap drop stream, which is
// keyed on an arrival sequence number (per-packet arrival order is
// inherently racy; determinism there would be a lie).
package fault

import (
	"fmt"
	"sync/atomic"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/measure"
	"spooftrack/internal/stats"
)

// Kind enumerates the injectable fault classes. roll mixes the kind's
// number into every decision, so the numbers are part of each profile's
// fault schedule: 4 and 9 belonged to injection sites that were never
// wired and have been removed, and they stay unassigned rather than
// renumbering (and so rescheduling) the kinds after them.
type Kind int

const (
	// KindDeployFail is a failed deployment attempt (mux unreachable,
	// announcement rejected, convergence never observed).
	KindDeployFail Kind = iota
	// KindMeasureFail is a lost measurement round (probe batch lost,
	// collector session down before the capture window closed).
	KindMeasureFail
	// KindLinkFlap is a peering-link flap observed during a deployment
	// attempt; flaps feed the platform's link-health breaker.
	KindLinkFlap
	// KindTapDrop is a per-packet event lost between the honeypot tap
	// and the streaming pipeline.
	KindTapDrop
	_
	// KindProbeLoss is an active spoof probe lost beyond the probe
	// network's own loss model.
	KindProbeLoss
	// KindLatency is injected deployment latency (slow convergence).
	KindLatency
	// KindHidden is a source hidden from an otherwise successful
	// catchment measurement (partial visibility).
	KindHidden
	// KindPartition is a blackholed RPC between two sharded-ingest
	// nodes (controller ↔ shard): the attempt times out and must be
	// retried. Rolled per ordered node pair and attempt, so retries
	// heal transient partitions deterministically.
	KindPartition
	_
	// KindSplitBrain is a controller spuriously losing its leadership
	// lease at renewal — the lease store's answer diverges from the
	// controller's belief, forcing abdication and re-election at a
	// higher term.
	KindSplitBrain

	numKinds
)

// kindNames names each kind as used in /faults output; the unassigned
// numbers have no name and are skipped there.
var kindNames = [numKinds]string{
	KindDeployFail:  "deploy_fail",
	KindMeasureFail: "measure_fail",
	KindLinkFlap:    "link_flap",
	KindTapDrop:     "tap_drop",
	KindProbeLoss:   "probe_loss",
	KindLatency:     "latency",
	KindHidden:      "hidden_source",
	KindPartition:   "partition",
	KindSplitBrain:  "split_brain",
}

// String names the kind as used in /faults output.
func (k Kind) String() string {
	if k >= 0 && k < numKinds && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Injector injects the faults described by a Profile. All methods are
// safe for concurrent use; injection counts are kept per kind (Stats).
type Injector struct {
	profile  Profile
	seed     uint64
	numLinks int

	counts [numKinds]atomic.Int64
	tapSeq atomic.Uint64

	// sleep is replaceable in tests so latency profiles don't slow the
	// suite down.
	sleep func(time.Duration)
}

// New builds an injector for the profile, seed, and number of peering
// links (flap decisions are rolled per link).
func New(p Profile, seed uint64, numLinks int) *Injector {
	return &Injector{profile: p, seed: seed, numLinks: numLinks, sleep: time.Sleep}
}

// roll returns a uniform [0,1) value that is a pure function of the
// injector seed, the fault kind, the site key, and the salt.
func (inj *Injector) roll(kind Kind, key string, salt uint64) float64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h ^= inj.seed
	h ^= (uint64(kind) + 1) * 0x9e3779b97f4a7c15
	h ^= salt * 0xd6e8feb86659fd93
	// The finalizer decorrelates nearby sites and salts.
	return float64(stats.Mix64(h)>>11) / (1 << 53)
}

func (inj *Injector) count(k Kind) { inj.counts[k].Add(1) }

// Deploy implements the platform's deployment fault hook: it injects
// convergence latency, rolls per-link flaps, and decides whether this
// attempt of the configuration fails. flapped is reported even when the
// attempt succeeds — links can flap without sinking a deployment — and
// feeds the platform's link-health breaker.
func (inj *Injector) Deploy(cfgKey string, attempt int) (flapped []bgp.LinkID, err error) {
	pr := &inj.profile
	if d := pr.DeployLatency; d > 0 {
		frac := inj.roll(KindLatency, cfgKey, uint64(attempt))
		inj.count(KindLatency)
		inj.sleep(time.Duration((0.5 + frac) * float64(d)))
	}
	if pr.PrLinkFlap > 0 {
		for l := 0; l < inj.numLinks; l++ {
			if inj.roll(KindLinkFlap, cfgKey, uint64(attempt)<<8|uint64(l)) < pr.PrLinkFlap {
				flapped = append(flapped, bgp.LinkID(l))
				inj.count(KindLinkFlap)
			}
		}
	}
	if pr.PrDeployFail > 0 && inj.roll(KindDeployFail, cfgKey, uint64(attempt)) < pr.PrDeployFail {
		inj.count(KindDeployFail)
		return flapped, fmt.Errorf("fault: injected deploy failure (config %q, attempt %d)", cfgKey, attempt)
	}
	return flapped, nil
}

// Measure implements the campaign's measurement fault hook: it decides
// whether this measurement attempt of configuration cfgIdx is lost.
func (inj *Injector) Measure(cfgIdx, attempt int) error {
	if pr := inj.profile.PrMeasureFail; pr > 0 &&
		inj.roll(KindMeasureFail, "", uint64(cfgIdx)<<16|uint64(attempt)) < pr {
		inj.count(KindMeasureFail)
		return fmt.Errorf("fault: injected measurement failure (config %d, attempt %d)", cfgIdx, attempt)
	}
	return nil
}

// DropEvent decides whether the next tapped per-packet event is lost.
// Unlike the other sites, drops are keyed on arrival order (packet
// arrival is inherently racy), so only the aggregate drop rate — not the
// exact drop set — is reproducible.
func (inj *Injector) DropEvent() bool {
	p := inj.profile.PrTapDrop
	if p <= 0 {
		return false
	}
	if inj.roll(KindTapDrop, "", inj.tapSeq.Add(1)) < p {
		inj.count(KindTapDrop)
		return true
	}
	return false
}

// WrapTap wraps an amp event tap with the injector's tap-drop fault:
// dropped events never reach t. A nil tap stays nil.
func (inj *Injector) WrapTap(t amp.Tap) amp.Tap {
	if t == nil {
		return nil
	}
	return func(ev amp.Event) {
		if inj.DropEvent() {
			return
		}
		t(ev)
	}
}

// Probe decides whether one active spoof-probe (egress link, target AS,
// probe sequence within the round) is lost, after injecting the
// profile's per-probe latency. Decisions are pure functions of
// (seed, link, target, seq) — like every other site, independent of call
// order — so a probe round is bit-reproducible at any concurrency.
// internal/probe.FaultHook is implemented by this method.
func (inj *Injector) Probe(link int, target int, seq uint64) bool {
	pr := &inj.profile
	salt := uint64(link)<<40 | uint64(target)<<16 | (seq & 0xffff)
	if d := pr.ProbeLatency; d > 0 {
		frac := inj.roll(KindLatency, "probe", salt)
		inj.count(KindLatency)
		inj.sleep(time.Duration((0.5 + frac) * float64(d)))
	}
	if p := pr.PrProbeLoss; p > 0 && inj.roll(KindProbeLoss, "probe", salt) < p {
		inj.count(KindProbeLoss)
		return true
	}
	return false
}

// HideSource reports whether source src is hidden from configuration
// cfgIdx's catchment measurement (partial catchment visibility).
func (inj *Injector) HideSource(cfgIdx, src int) bool {
	p := inj.profile.HideVisibility
	if p <= 0 {
		return false
	}
	if inj.roll(KindHidden, "", uint64(cfgIdx)<<28|uint64(src)) < p {
		inj.count(KindHidden)
		return true
	}
	return false
}

// Mask implements the campaign's optional measurement masker: it
// degrades a successful measurement in place by hiding a deterministic
// subset of observed sources (partial catchment visibility). It returns
// how many observations were hidden.
func (inj *Injector) Mask(cfgIdx int, m *measure.CatchmentMeasurement) int {
	if inj.profile.HideVisibility <= 0 {
		return 0
	}
	hidden := 0
	for i, l := range m.Catchment {
		if l != bgp.NoLink && inj.HideSource(cfgIdx, i) {
			m.Catchment[i] = bgp.NoLink
			hidden++
		}
	}
	return hidden
}

// Partitioned reports whether the RPC path between two sharded-ingest
// nodes is blackholed for this attempt. The decision is symmetric (the
// pair is ordered before hashing: a partition cuts both directions) and
// salted per attempt, so a controller retrying with backoff heals a
// transient partition deterministically — the same attempt of the same
// edge always rolls the same way.
func (inj *Injector) Partitioned(from, to string, attempt int) bool {
	p := inj.profile.PrPartition
	if p <= 0 {
		return false
	}
	a, b := from, to
	if b < a {
		a, b = b, a
	}
	if inj.roll(KindPartition, a+"|"+b, uint64(attempt)) < p {
		inj.count(KindPartition)
		return true
	}
	return false
}

// SplitBrain reports whether the lease holder spuriously loses its
// leadership lease at the given renewal (0 for the first) of the given
// term — the injected moment where the controller's belief and the
// lease store diverge. Every renewal rolls on its own, so a holder whose
// early renewals survive can still lose the lease later in the term.
// Fenced terms turn this into a clean abdication + re-election instead
// of two live controllers.
func (inj *Injector) SplitBrain(holder string, term, renewal uint64) bool {
	p := inj.profile.PrSplitBrain
	if p <= 0 {
		return false
	}
	if inj.roll(KindSplitBrain, holder, term+renewal<<32) < p {
		inj.count(KindSplitBrain)
		return true
	}
	return false
}

// Count returns how many faults of the kind have been injected.
func (inj *Injector) Count(k Kind) int64 {
	if k < 0 || k >= numKinds {
		return 0
	}
	return inj.counts[k].Load()
}

// Stats is a point-in-time injection summary, shaped for the daemon's
// /faults endpoint.
type Stats struct {
	Profile string           `json:"profile"`
	Seed    uint64           `json:"seed"`
	Counts  map[string]int64 `json:"injected"`
}

// Stats snapshots the injector: profile, seed, and per-kind injection
// counts. Every registered kind is listed, including ones with zero
// injections, so operators can see which fault classes exist (and are
// armed but quiet) before the first trigger.
func (inj *Injector) Stats() Stats {
	s := Stats{Profile: inj.profile.Name, Seed: inj.seed, Counts: make(map[string]int64, numKinds)}
	for k, name := range kindNames {
		if name != "" {
			s.Counts[name] = inj.counts[k].Load()
		}
	}
	return s
}
