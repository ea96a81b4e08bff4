package main

import (
	"fmt"
	"net/netip"

	"spooftrack"
	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

// scale sizes every world and round. fullScale is what BENCHMARK.json
// measures; smallScale keeps the same code paths but finishes in well
// under a second per workload, for the smoke test.
type scale struct {
	// The localize world: a truth campaign over a generated topology
	// gives the catchment matrix the three localize workloads share.
	localizeASes   int
	localizePoison int
	// Packets (events) a round must carry before it folds.
	loopbackRound int64
	directRound   int64
	shardedRound  int64
	// Attacks per op.
	loopbackAttacks int
	directAttacks   int
	shardedAttacks  int
	botnetSize      int
	shards          int
	// The measured campaign: a small graph, because every configuration
	// pays the full collect/infer pipeline.
	measuredASes       int
	measuredProbes     int
	measuredCollectors int
	measuredPoison     int
	// The truth campaign: an internet-shaped graph, because propagation
	// is all it does.
	truthASes   int
	truthPoison int
	// Packets the amp probe pushes through border and honeypot.
	ampProbePackets int
}

var fullScale = scale{
	localizeASes: 1000, localizePoison: 20,
	loopbackRound: 2000, directRound: 50000, shardedRound: 2000,
	loopbackAttacks: 4, directAttacks: 2, shardedAttacks: 4,
	botnetSize: 8, shards: 4,
	measuredASes: 600, measuredProbes: 200, measuredCollectors: 50, measuredPoison: 5,
	truthASes: 10000, truthPoison: 40,
	ampProbePackets: 20000,
}

var smallScale = scale{
	localizeASes: 300, localizePoison: 4,
	loopbackRound: 128, directRound: 1000, shardedRound: 200,
	loopbackAttacks: 1, directAttacks: 1, shardedAttacks: 1,
	botnetSize: 4, shards: 2,
	measuredASes: 120, measuredProbes: 16, measuredCollectors: 6, measuredPoison: 2,
	truthASes: 400, truthPoison: 4,
	ampProbePackets: 512,
}

// World seeds are constants, not functions of -seed: the topology fixes
// how many configurations a plan has and how many rounds an attack
// takes, and the run-to-run spread the benchmark is held to is taken
// across seeds. -seed varies what the program is fed on that fixed
// ground (see README.md, "What the seed drives").
const (
	localizeWorldSeed = 17
	measuredGraphSeed = 23
	truthGraphSeed    = 29
	enginePolicySeed  = 31
)

// localizeWorld is the offline knowledge the live loop runs against.
type localizeWorld struct {
	tracker *spooftrack.Tracker
	attr    stream.Attribution
	// eligible are the source positions routed under every
	// configuration. An attacker outside this set would have its packets
	// dropped at the border under some configuration, and a round that
	// never fills never folds.
	eligible []int
}

func buildLocalizeWorld(sc scale) (*localizeWorld, error) {
	p := spooftrack.DefaultTrackerParams(localizeWorldSeed)
	tp := spooftrack.DefaultGenParams(localizeWorldSeed)
	tp.NumASes = sc.localizeASes
	p.World.Topo = &tp
	p.World.MaxPoisonTargets = sc.localizePoison
	p.UseTruth = true
	tr, err := spooftrack.NewTracker(p)
	if err != nil {
		return nil, fmt.Errorf("localize world: %w", err)
	}
	w := &localizeWorld{
		tracker: tr,
		attr: stream.Attribution{
			Catchments: tr.Campaign.Catchments,
			SourceASNs: tr.SourceASNs(),
			NumLinks:   tr.World.Platform.NumLinks(),
		},
	}
	for k := range w.attr.SourceASNs {
		routed := true
		for _, row := range w.attr.Catchments {
			if row[k] == bgp.NoLink {
				routed = false
				break
			}
		}
		if routed {
			w.eligible = append(w.eligible, k)
		}
	}
	if len(w.eligible) < 64 {
		return nil, fmt.Errorf("localize world: only %d always-routed sources", len(w.eligible))
	}
	return w, nil
}

// attack is one spoofing campaign against the origin: who really sends,
// and the traffic template one round replays.
type attack struct {
	// sources are the true attacker positions in the source universe.
	sources []int
	// events is one balanced cycle of the attack's traffic — every
	// source the same number of times, in seeded order — with the
	// ingress link left for the sender to stamp from the configuration
	// deployed at that moment, as the border would. pos[i] is the source
	// position behind events[i].
	events []amp.Event
	pos    []int
}

// eventsPerSource is how often each source appears in one template
// cycle; round sizes are multiples of botnetSize*eventsPerSource, so
// per-link volumes are exactly proportional at every round size.
const eventsPerSource = 50

// buildAttacks draws n attacks of size sources each. Who attacks comes
// from the catalogue; the victims, packet sizes, the interleaving of the
// sources' packets and the order of the attacks come from the seed.
func buildAttacks(w *localizeWorld, catalogue, seed uint64, n, size int) []attack {
	who := stats.NewRNG(catalogue ^ 0xa77ac4e5)
	how := stats.NewRNG(seed ^ 0x5eed10ad)
	attacks := make([]attack, n)
	for a := range attacks {
		perm := who.Perm(len(w.eligible))
		at := attack{sources: make([]int, size)}
		for i := range at.sources {
			at.sources[i] = w.eligible[perm[i]]
		}
		victims := make([]netip.Addr, 4)
		for i := range victims {
			victims[i] = netip.AddrFrom4([4]byte{198, 51, 100, byte(1 + how.Intn(254))})
		}
		n := size * eventsPerSource
		at.events = make([]amp.Event, n)
		at.pos = make([]int, n)
		for i, j := range how.Perm(n) {
			k := at.sources[j%size]
			at.pos[i] = k
			at.events[i] = amp.Event{
				TrueSrcAS:  uint32(w.attr.SourceASNs[k]),
				SpoofedSrc: victims[how.Intn(len(victims))],
				WireLen:    24 + how.Intn(41),
			}
		}
		attacks[a] = at
	}
	how.Shuffle(len(attacks), func(i, j int) { attacks[i], attacks[j] = attacks[j], attacks[i] })
	return attacks
}

// containsAll reports whether every want is in have.
func containsAll(have, want []int) bool {
	set := make(map[int]bool, len(have))
	for _, k := range have {
		set[k] = true
	}
	for _, k := range want {
		if !set[k] {
			return false
		}
	}
	return true
}

// checksum folds ints into an FNV-1a style digest, for comparing
// deployment sequences and catchment matrices across ops.
type checksum uint64

func newChecksum() checksum { return 14695981039346656037 }

func (c *checksum) add(v int) {
	*c = (*c ^ checksum(uint32(v))) * 1099511628211
}

// internetMinASes is the smallest topology the internet-scale generator
// is meant for.
const internetMinASes = 1000

// generateGraph builds a topology from the paper-scale generator
// (small graphs) or the internet-scale one (internetMinASes and up).
func generateGraph(seed uint64, ases int, internet bool) (*topo.Graph, error) {
	gp := topo.DefaultGenParams(seed)
	gp.NumASes = ases
	if internet {
		gp = topo.InternetGenParams(seed, ases)
	}
	return topo.Generate(gp)
}
