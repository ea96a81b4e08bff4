// Package probe is the pipeline's second evidence channel: an active
// spoof-probing subsystem that tests, per peering-link catchment,
// whether probed networks deploy source address validation (SAV). Where
// the campaign side of the paper infers spoofers passively from
// catchment attribution, this package probes in the spirit of the
// Spoofer project, Korczyński et al.'s closed-resolver ("lock the
// front door") scans, and SMap-style reflection measurements: send
// carefully spoofed packets at a network and observe whether anything
// comes back.
//
// Three probe kinds triangulate a network's filtering posture:
//
//   - Control: an unspoofed probe. Its answer rate is the baseline
//     delivery rate, which turns "no answer to a spoofed probe" from a
//     boolean into a confidence.
//   - Inbound: a probe whose source address is forged from the target's
//     own address space. Networks deploying inbound SAV drop it at the
//     border (nothing answers); networks without see it delivered.
//   - Outbound: an amplification request (a real DNS ANY / NTP monlist
//     payload, built and validated by internal/amp) aimed at a reflector
//     inside the target, with the collector's address as the forged
//     source. The reflected answer only escapes the target if the
//     target does NOT filter outbound spoofed traffic — the BCP38
//     posture the paper's remediation loop cares about.
//
// Replies carry the AS-level hop count of the path they took;
// answers whose hop count disagrees with the control baseline are
// discarded as off-path junk (third-party injected responses), never
// counted as delivery evidence.
//
// SimNet grounds the probes in the simulated topology: reachability and
// hop counts come from a converged bgp.Outcome, and SAV ground truth is
// an explicit per-AS vector, so inference quality is measurable against
// known truth. The Prober (prober.go) schedules rounds, SAVInference
// (sav.go) turns tallies into verdicts with honest confidences, and the
// evidence bridge (evidence.go) promotes confident verdicts into the
// probe channel, audits its measured ingress links against the campaign
// catchments, and builds the BCP38 model that gates candidate spoofers.
package probe

import (
	"fmt"
	"net/netip"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
)

// Kind distinguishes the three probe types.
type Kind uint8

const (
	// KindControl is an unspoofed baseline probe.
	KindControl Kind = iota
	// KindInbound carries a source forged from the target's own space.
	KindInbound
	// KindOutbound triggers a reflector inside the target with the
	// collector's address forged as the source.
	KindOutbound

	numKinds = 3
)

// String names the kind as used in reports.
func (k Kind) String() string {
	switch k {
	case KindControl:
		return "control"
	case KindInbound:
		return "inbound"
	case KindOutbound:
		return "outbound"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CollectorAddr is the fixed measurement-point address outbound probes
// forge as their source, so reflected answers route back to the
// collector (TEST-NET-2, guaranteed outside every simulated AS's space).
var CollectorAddr = netip.AddrFrom4([4]byte{198, 51, 100, 1})

// Probe is one emitted probe packet.
type Probe struct {
	// Kind selects the probe semantics.
	Kind Kind
	// Target is the dense topology index of the probed AS.
	Target int
	// Seq is the probe's sequence number, unique per prober.
	Seq uint64
	// SpoofedSrc is the forged source address (zero for controls).
	SpoofedSrc netip.Addr
	// Payload is the amplification request for outbound probes.
	Payload []byte
}

// Response is what (if anything) came back.
type Response struct {
	// Answered reports whether any reply was observed.
	Answered bool
	// Hops is the AS-level hop count of the reply path.
	Hops int
	// Link is the peering link the reply arrived on.
	Link bgp.LinkID
	// Payload is the reflected answer for outbound probes.
	Payload []byte
}

// Network delivers probes. Implementations must be safe for concurrent
// Send calls and deterministic for a fixed construction.
type Network interface {
	Send(p Probe) Response
}

// GroundTruth is the per-AS SAV deployment the simulated network
// enforces — what inference is graded against.
type GroundTruth struct {
	// InboundSAV[i] reports whether AS i drops packets arriving from
	// outside that claim its own address space.
	InboundSAV []bool
	// OutboundSAV[i] reports whether AS i filters spoofed-source packets
	// leaving it (BCP38).
	OutboundSAV []bool
}

// RandomGroundTruth deploys inbound and outbound SAV independently at
// the given per-AS rates, seeded.
func RandomGroundTruth(n int, inFrac, outFrac float64, seed uint64) GroundTruth {
	rng := stats.NewRNG(seed ^ 0x5a71e57)
	gt := GroundTruth{
		InboundSAV:  make([]bool, n),
		OutboundSAV: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		gt.InboundSAV[i] = rng.Bool(inFrac)
		gt.OutboundSAV[i] = rng.Bool(outFrac)
	}
	return gt
}

// SimNet delivers probes over a converged routing outcome with explicit
// SAV ground truth. It is stateless after construction and safe for
// concurrent Send.
type SimNet struct {
	outcome  *bgp.Outcome
	truth    GroundTruth
	services []amp.Service
	// offPathFrac is the seeded fraction of targets whose replies to
	// spoofed probes arrive with implausible hop counts (modeling
	// third-party response injection); the prober must discard them.
	offPathFrac float64
	seed        uint64
}

// NewSimNet builds the simulated probe network. truth vectors must
// cover every AS the outcome routes.
func NewSimNet(out *bgp.Outcome, truth GroundTruth, offPathFrac float64, seed uint64) (*SimNet, error) {
	n := out.Graph().NumASes()
	if len(truth.InboundSAV) < n || len(truth.OutboundSAV) < n {
		return nil, fmt.Errorf("probe: ground truth covers %d/%d inbound, %d/%d outbound ASes",
			len(truth.InboundSAV), n, len(truth.OutboundSAV), n)
	}
	if offPathFrac < 0 || offPathFrac > 1 {
		return nil, fmt.Errorf("probe: off-path fraction %v out of [0,1]", offPathFrac)
	}
	return &SimNet{
		outcome:     out,
		truth:       truth,
		services:    amp.DefaultServices(),
		offPathFrac: offPathFrac,
		seed:        seed,
	}, nil
}

// Send implements Network.
func (s *SimNet) Send(p Probe) Response {
	t := p.Target
	if t < 0 || t >= s.outcome.Graph().NumASes() || !s.outcome.HasRoute(t) {
		return Response{}
	}
	hops := s.outcome.DataPathLen(t)
	link := s.outcome.CatchmentOf(t)
	switch p.Kind {
	case KindControl:
		return Response{Answered: true, Hops: hops, Link: link}
	case KindInbound:
		if s.truth.InboundSAV[t] {
			return Response{}
		}
		return Response{Answered: true, Hops: s.replyHops(t, hops), Link: link}
	case KindOutbound:
		svc, ok := amp.RecognizeService(s.services, p.Payload)
		if !ok {
			// No reflector recognizes the payload: nothing to reflect.
			return Response{}
		}
		if s.truth.OutboundSAV[t] {
			// The reflector answers, but its spoofed-source reply dies at
			// the target's border filter.
			return Response{}
		}
		return Response{
			Answered: true,
			Hops:     s.replyHops(t, hops),
			Link:     link,
			Payload:  svc.Respond(p.Payload, 512),
		}
	default:
		return Response{}
	}
}

// replyHops returns the hop count a spoofed-probe reply reports:
// the true path length, except for the seeded off-path fraction of
// targets whose replies come back wildly long.
func (s *SimNet) replyHops(target, trueHops int) int {
	if s.offPathFrac <= 0 {
		return trueHops
	}
	h := mix(s.seed, uint64(target))
	if float64(h>>11)/(1<<53) < s.offPathFrac {
		return trueHops + 5 + int(h%7)
	}
	return trueHops
}

// mix hashes (seed, v) through SplitMix64 for a uniform deterministic
// site value, mirroring the fault injector's site-hash discipline.
func mix(seed, v uint64) uint64 {
	return stats.Mix64(seed ^ 0x9e3779b97f4a7c15 ^ (v * 0xbf58476d1ce4e5b9))
}
