package measure

import (
	"encoding/binary"
	"net/netip"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// TargetAddr is the destination probed inside the announced prefix
// (TEST-NET-2 stands in for the PEERING experiment prefix; it is outside
// the topology address grid so it maps to no topology AS).
var TargetAddr = netip.MustParseAddr("198.51.100.1")

// targetHop is TargetAddr as the hop that answers for it.
const targetHop Hop = 198<<24 | 51<<16 | 100<<8 | 1

// Hop is one traceroute hop: the answering interface's IPv4 address as a
// big-endian word, or 0 when the hop timed out ("* * *"). Every address
// the simulated plan hands out is IPv4 and none is 0.0.0.0 (package
// addr), so one word holds both (DESIGN.md §5.10).
type Hop uint32

// Responsive reports whether the hop answered.
func (h Hop) Responsive() bool { return h != 0 }

// Addr returns the hop's address; the zero Addr when it did not answer.
func (h Hop) Addr() netip.Addr {
	if h == 0 {
		return netip.Addr{}
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(h))
	return netip.AddrFrom4(b)
}

// String returns the hop's address, or "*" when it did not answer.
func (h Hop) String() string {
	if h == 0 {
		return "*"
	}
	return h.Addr().String()
}

// Traceroute is one measurement from a probe AS toward the announced
// prefix.
type Traceroute struct {
	// ProbeAS is the dense index of the AS hosting the probe.
	ProbeAS int
	// Hops are the observed hops, ending at the destination if the
	// prefix was reachable.
	Hops []Hop
	// Reached reports whether the destination answered.
	Reached bool
}

// NoiseParams controls the imperfections injected into synthesized
// traceroutes, modeled on the artifacts §IV-b repairs.
type NoiseParams struct {
	// PrUnresponsive is the per-hop probability of a timeout ("* * *").
	PrUnresponsive float64
	// PrIXPHop is the probability that an AS boundary crossing surfaces
	// an IXP-segment address that maps to no AS.
	PrIXPHop float64
	// PrProbeFail is the probability an entire traceroute is lost
	// (probe offline, rate limiting).
	PrProbeFail float64
	// RoutersPerAS bounds the interface-address diversity per AS.
	RoutersPerAS int
	// Rounds is how many traceroute rounds each probe completes per
	// configuration. The paper sizes its 70-minute slots to collect at
	// least three post-convergence rounds (§IV-b); multiple rounds feed
	// the majority vote of §IV-c.
	Rounds int
}

// DefaultNoise returns noise levels that produce the repair workload the
// paper describes without overwhelming inference.
func DefaultNoise() NoiseParams {
	return NoiseParams{
		PrUnresponsive: 0.10,
		PrIXPHop:       0.06,
		PrProbeFail:    0.04,
		RoutersPerAS:   3,
		Rounds:         3,
	}
}

// synthesize appends one traceroute's hops to the arena. ok=false means
// the measurement was lost; reached=false that the probe has no route
// (nothing appended in either case). The rng is drawn from in a fixed
// order — probe failure, then per AS on the data path: router choice
// before the hop's responsiveness, the IXP coin before the ingress hop —
// which is what keeps measurements reproducible from a config's seed.
func (s *scratch) synthesize(out *bgp.Outcome, space *addr.Space, probe int, noise NoiseParams, rng *stats.RNG) (reached, ok bool) {
	if rng.Bool(noise.PrProbeFail) {
		return false, false
	}
	s.path = out.AppendDataPath(s.path[:0], probe)
	dp := s.path
	if len(dp) == 0 {
		return false, true
	}
	routers := noise.RoutersPerAS
	if routers < 1 {
		routers = 1
	}
	emit := func(a uint32) {
		if rng.Bool(noise.PrUnresponsive) {
			a = 0
		}
		s.hops = append(s.hops, Hop(a))
	}
	for k, asIdx := range dp {
		if k == 0 {
			// The probe's own egress router.
			emit(space.RouterAddr(asIdx, rng.Intn(routers)))
			continue
		}
		// Boundary crossing into asIdx: sometimes via an IXP segment.
		if rng.Bool(noise.PrIXPHop) {
			emit(addr.IXPAddr(asIdx*7 + k))
		}
		// Ingress and egress interfaces inside asIdx.
		emit(space.RouterAddr(asIdx, rng.Intn(routers)))
		if k < len(dp)-1 {
			emit(space.RouterAddr(asIdx, rng.Intn(routers)))
		}
	}
	// Destination inside the announced prefix.
	s.hops = append(s.hops, targetHop)
	return true, true
}

// Observation is everything the origin can measure for one deployed
// configuration: the AS-paths seen by route collectors and the
// traceroutes issued from probes.
type Observation struct {
	// BGPPaths maps collector AS (dense index) to the AS-path it
	// selected; collectors without a route are absent.
	BGPPaths map[int][]topo.ASN
	// Traceroutes are the probe measurements that completed.
	Traceroutes []Traceroute
}

// Collect simulates one configuration's measurements for a routing
// outcome: the collector paths plus noise.Rounds rounds of traceroutes
// from every probe. The rng is advanced deterministically; pass a child
// generator per config for reproducibility. The observation is the
// caller's to keep and modify.
func Collect(out *bgp.Outcome, v VantageSet, space *addr.Space, noise NoiseParams, rng *stats.RNG) Observation {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	obs := Observation{BGPPaths: pathMap(s.collect(out, v, space, noise, rng))}
	if len(s.trs) > 0 {
		obs.Traceroutes = append([]Traceroute(nil), s.trs...)
		sliceHops(obs.Traceroutes, append([]Hop(nil), s.hops...))
	}
	return obs
}

// collect is Collect into the scratch: the collector paths land in
// s.paths in v.Collectors' order, their ASNs in s.asns, the traceroutes
// in s.trs and their hops in s.hops. It returns s.paths.
func (s *scratch) collect(out *bgp.Outcome, v VantageSet, space *addr.Space, noise NoiseParams, rng *stats.RNG) []collectorPath {
	s.asns, s.paths = s.asns[:0], s.paths[:0]
	for _, c := range v.Collectors {
		start := len(s.asns)
		if s.asns = out.AppendASPath(s.asns, c); len(s.asns) > start {
			s.paths = append(s.paths, collectorPath{collector: c, path: s.asns[start:]})
		}
	}
	slicePaths(s.paths, s.asns)
	rounds := noise.Rounds
	if rounds < 1 {
		rounds = 1
	}
	s.hops, s.trs = s.hops[:0], s.trs[:0]
	for round := 0; round < rounds; round++ {
		for _, probe := range v.Probes {
			start := len(s.hops)
			if reached, ok := s.synthesize(out, space, probe, noise, rng); ok && reached {
				s.trs = append(s.trs, Traceroute{ProbeAS: probe, Hops: s.hops[start:], Reached: true})
			}
		}
	}
	// The arena may have moved while it grew; point every traceroute at
	// its final position.
	sliceHops(s.trs, s.hops)
	return s.paths
}

// sliceHops re-points trs[k].Hops, keeping each length, at consecutive
// runs of arena.
func sliceHops(trs []Traceroute, arena []Hop) {
	off := 0
	for k := range trs {
		end := off + len(trs[k].Hops)
		trs[k].Hops = arena[off:end:end]
		off = end
	}
}
