package spoof

import (
	"fmt"
	"sort"

	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// BCP38 (ingress filtering, RFC 2827) stops spoofed packets at their
// first hop. The paper's purpose is to find the networks that have NOT
// deployed it (§I); this file models partial deployment so remediation
// campaigns can be studied: hosts in deploying networks simply cannot
// contribute spoofed volume.

// BCP38Model tracks which source networks filter spoofed traffic.
type BCP38Model struct {
	deployed []bool
}

// NewBCP38Model marks a seeded random fraction of the n sources as
// deploying ingress filtering (measurement studies place real
// deployment around half to three quarters of networks).
func NewBCP38Model(n int, deployFrac float64, seed uint64) (*BCP38Model, error) {
	if deployFrac < 0 || deployFrac > 1 {
		return nil, fmt.Errorf("spoof: deployment fraction %v out of [0,1]", deployFrac)
	}
	rng := stats.NewRNG(seed ^ 0xbc938)
	m := &BCP38Model{deployed: make([]bool, n)}
	for i := range m.deployed {
		m.deployed[i] = rng.Bool(deployFrac)
	}
	return m, nil
}

// NewBCP38FromVector builds a model from an explicit per-source
// deployment vector — e.g. one inferred by active SAV probing
// (internal/probe) rather than seeded at random. The vector is copied.
func NewBCP38FromVector(deployed []bool) *BCP38Model {
	return &BCP38Model{deployed: append([]bool(nil), deployed...)}
}

// Deployed reports whether source k filters spoofed traffic.
func (m *BCP38Model) Deployed(k int) bool { return m.deployed[k] }

// Deploy marks source k as filtering from now on (e.g., after a
// notification campaign reached its operator).
func (m *BCP38Model) Deploy(k int) { m.deployed[k] = true }

// DeployedFrac returns the fraction of sources filtering.
func (m *BCP38Model) DeployedFrac() float64 {
	n := 0
	for _, d := range m.deployed {
		if d {
			n++
		}
	}
	return float64(n) / float64(len(m.deployed))
}

// Filter zeroes the spoofed-traffic weight of every deploying source,
// returning the placement an attacker can actually realize.
func (m *BCP38Model) Filter(p Placement) Placement {
	out := Placement{Weight: append([]float64(nil), p.Weight...)}
	for k := range out.Weight {
		if k < len(m.deployed) && m.deployed[k] {
			out.Weight[k] = 0
		}
	}
	return out
}

// RemediationStep is one round of the notify-and-fix loop.
type RemediationStep struct {
	// Round counts from 1.
	Round int
	// NotifiedASCount is how many networks were notified this round.
	NotifiedASCount int
	// ResidualVolume is the spoofed volume still arriving afterwards.
	ResidualVolume float64
	// ResidualFrac is ResidualVolume over the initial volume.
	ResidualFrac float64
}

// Remediate runs the localization-driven notification loop the paper
// envisions: each round, correlate the currently realizable spoofed
// traffic with catchments, notify candidate networks' operators
// (modeled as BCP38 deployment), and measure the residual.
// notifyPerRound caps outreach per round to the candidates with the
// strongest volume evidence — a realistic notification budget; 0 means
// notify every candidate at once. The loop ends when the volume is
// gone, no further candidates can be found, or maxRounds is reached.
func Remediate(catchments [][]bgp.LinkID, p Placement, model *BCP38Model, numLinks, maxRounds, notifyPerRound int) []RemediationStep {
	initial := model.Filter(p).TotalVolume()
	var steps []RemediationStep
	if initial == 0 || len(catchments) == 0 {
		return steps
	}
	for round := 1; round <= maxRounds; round++ {
		realizable := model.Filter(p)
		if realizable.TotalVolume() == 0 {
			break
		}
		volumes := make([][]float64, len(catchments))
		for c := range catchments {
			volumes[c] = LinkVolumes(catchments[c], realizable, numLinks)
		}
		candidates := Localize(catchments, volumes)
		// Rank candidates by the mean volume share their links carried:
		// the same evidence an operator report would lead with.
		rankCandidatesByEvidence(candidates, catchments, volumes)
		step := RemediationStep{Round: round}
		for _, k := range candidates {
			if notifyPerRound > 0 && step.NotifiedASCount >= notifyPerRound {
				break
			}
			if !model.Deployed(k) {
				model.Deploy(k)
				step.NotifiedASCount++
			}
		}
		residual := model.Filter(p).TotalVolume()
		step.ResidualVolume = residual
		step.ResidualFrac = residual / initial
		steps = append(steps, step)
		if step.NotifiedASCount == 0 || residual == 0 {
			break
		}
	}
	return steps
}

// rankCandidatesByEvidence sorts candidate source positions by
// descending mean per-configuration volume share of their catchment
// links (ties by position for determinism).
func rankCandidatesByEvidence(candidates []int, catchments [][]bgp.LinkID, volumes [][]float64) {
	score := make(map[int]float64, len(candidates))
	for _, k := range candidates {
		sum, n := 0.0, 0
		for c := range catchments {
			l := catchments[c][k]
			if l == bgp.NoLink || int(l) >= len(volumes[c]) {
				continue
			}
			total := 0.0
			for _, v := range volumes[c] {
				total += v
			}
			if total > 0 {
				sum += volumes[c][l] / total
				n++
			}
		}
		if n > 0 {
			score[k] = sum / float64(n)
		}
	}
	sort.SliceStable(candidates, func(a, b int) bool {
		if score[candidates[a]] != score[candidates[b]] {
			return score[candidates[a]] > score[candidates[b]]
		}
		return candidates[a] < candidates[b]
	})
}
