package probe

import (
	"fmt"

	"spooftrack/internal/bgp"
	"spooftrack/internal/spoof"
)

// This file bridges probe inference into the attribution side: the probe
// channel (measured ingress links and spoofability signals), an inferred
// BCP38 model, and the agreement/conflict audit between the active and
// passive channels.

// SAVSignal is the per-AS spoofability signal an active probing pass
// derives: whether the network's outbound source-address validation
// would let it originate spoofed traffic. Only high-confidence probe
// verdicts are promoted into signals; everything else stays SAVNoData.
type SAVSignal int8

const (
	// SAVNoData means the probe channel has no (confident) verdict.
	SAVNoData SAVSignal = iota
	// SAVCanSpoof means a spoofed probe escaped the network: it can
	// originate spoofed traffic (no outbound SAV / BCP38).
	SAVCanSpoof
	// SAVCannotSpoof means spoofed probes were filtered while control
	// probes answered: outbound SAV is deployed.
	SAVCannotSpoof
)

// String names the signal as recorded in ledger probe events.
func (s SAVSignal) String() string {
	switch s {
	case SAVNoData:
		return "no_data"
	case SAVCanSpoof:
		return "can_spoof"
	case SAVCannotSpoof:
		return "cannot_spoof"
	default:
		return fmt.Sprintf("SAVSignal(%d)", int(s))
	}
}

// ProbeChannel is the evidence active probing contributes next to the
// campaign's catchments: an independently measured ingress link per AS
// (the link a probed network's replies actually arrived on) and a per-AS
// spoofability signal. Both are indexed by dense topology index, like a
// catchment vector; bgp.NoLink / SAVNoData mark ASes the probing pass has
// no evidence for.
type ProbeChannel struct {
	Link   []bgp.LinkID
	Signal []SAVSignal
}

// BuildChannel turns the inference into the probe channel: per-AS
// measured ingress links (from control replies — an ingress observation
// independent of the campaign's catchment measurements) and per-AS
// spoofability signals. Only outbound verdicts at or above HighConfidence
// are promoted to signals; everything else stays SAVNoData, so a degraded
// scan (probe-storm) contributes no evidence rather than wrong evidence.
func BuildChannel(inf *SAVInference) *ProbeChannel {
	n := inf.NumASes()
	pc := &ProbeChannel{
		Link:   make([]bgp.LinkID, n),
		Signal: make([]SAVSignal, n),
	}
	for as := 0; as < n; as++ {
		pc.Link[as] = bgp.NoLink
		if !inf.Probed(as) {
			continue
		}
		r := inf.Report(as)
		if r.CtlAns > 0 {
			pc.Link[as] = r.Link
		}
		switch {
		case r.Outbound == SAVAbsent && r.OutConfidence >= HighConfidence:
			pc.Signal[as] = SAVCanSpoof
		case r.Outbound == SAVDeployed && r.OutConfidence >= HighConfidence:
			pc.Signal[as] = SAVCannotSpoof
		}
	}
	return pc
}

// InferredBCP38 builds a BCP38 deployment model over source positions
// from probe verdicts: position k (dense AS sources[k]) is marked
// deploying iff its outbound verdict is SAVDeployed at or above
// HighConfidence. Unprobed and low-confidence sources are conservatively
// non-deploying (they stay candidate spoofers). This is the probed
// counterpart of the seeded spoof.NewBCP38Model — a deployment map the
// origin measured instead of assumed.
func InferredBCP38(inf *SAVInference, sources []int) *spoof.BCP38Model {
	deployed := make([]bool, len(sources))
	for k, as := range sources {
		if as < 0 || as >= inf.NumASes() || !inf.Probed(as) {
			continue
		}
		r := inf.Report(as)
		deployed[k] = r.Outbound == SAVDeployed && r.OutConfidence >= HighConfidence
	}
	return spoof.NewBCP38FromVector(deployed)
}

// ChannelAudit tallies how the probe channel's measured ingress links
// relate to the campaign catchment vector, AS by AS — the
// agreement/conflict accounting between the two evidence channels.
type ChannelAudit struct {
	// Agree counts ASes where both channels name the same link.
	Agree int `json:"agree"`
	// Conflict counts ASes where the channels name different links.
	Conflict int `json:"conflict"`
	// ProbeOnly / CatchmentOnly count ASes only one channel covers.
	ProbeOnly     int `json:"probe_only"`
	CatchmentOnly int `json:"catchment_only"`
	// Neither counts ASes with no evidence at all.
	Neither int `json:"neither"`
	// ConflictASes lists the disagreeing dense indices (route drift or
	// measurement error — the review queue).
	ConflictASes []int `json:"conflict_ases,omitempty"`
}

// Audit compares the probe channel against a catchment vector.
func Audit(pc *ProbeChannel, catchment []bgp.LinkID) ChannelAudit {
	var a ChannelAudit
	n := len(catchment)
	if len(pc.Link) > n {
		n = len(pc.Link)
	}
	for as := 0; as < n; as++ {
		e1, e2 := bgp.NoLink, bgp.NoLink
		if as < len(catchment) {
			e1 = catchment[as]
		}
		if as < len(pc.Link) {
			e2 = pc.Link[as]
		}
		switch {
		case e1 == bgp.NoLink && e2 == bgp.NoLink:
			a.Neither++
		case e2 == bgp.NoLink:
			a.CatchmentOnly++
		case e1 == bgp.NoLink:
			a.ProbeOnly++
		case e1 == e2:
			a.Agree++
		default:
			a.Conflict++
			a.ConflictASes = append(a.ConflictASes, as)
		}
	}
	return a
}
