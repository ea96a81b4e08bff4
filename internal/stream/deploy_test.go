package stream

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"spooftrack"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// Deploy-table digests: the FNV-64a digest of every (configuration,
// catchment table sorted by ASN) the Deploy callback is handed over a
// fixed AdvanceEpoch sequence, captured at 3965dbd, while every deploy
// still rendered a fresh table. worldTableGolden is the localize
// workloads' world (distinct source ASNs); dupTableGolden is a small
// attribution whose ASNs repeat, where the last routed source of an ASN
// decides its link.
const (
	worldTableGolden = 0x17d8c675d023e148
	dupTableGolden   = 0xb1322f267d3f1870
)

// localizeAttribution builds the localize workloads' world — 1000 ASes,
// 20 poison targets, true catchments, seed 17 as bench/world.go's
// localizeWorldSeed — as an Attribution, with a seeded eighth of its
// cells unobserved (bgp.NoLink), as a measured campaign leaves them: the
// true catchments route every source under every configuration.
func localizeAttribution(tb testing.TB) Attribution {
	const seed = 17
	p := spooftrack.DefaultTrackerParams(seed)
	tp := spooftrack.DefaultGenParams(seed)
	tp.NumASes = 1000
	p.World.Topo = &tp
	p.World.MaxPoisonTargets = 20
	p.UseTruth = true
	tr, err := spooftrack.NewTracker(p)
	if err != nil {
		tb.Fatal(err)
	}
	rng := stats.NewRNG(0xdeb1)
	rows := make([][]bgp.LinkID, len(tr.Campaign.Catchments))
	for c, row := range tr.Campaign.Catchments {
		rows[c] = append([]bgp.LinkID(nil), row...)
		for k := range rows[c] {
			if rng.Intn(8) == 0 {
				rows[c][k] = bgp.NoLink
			}
		}
	}
	return Attribution{
		Catchments: rows,
		SourceASNs: tr.SourceASNs(),
		NumLinks:   tr.World.Platform.NumLinks(),
	}
}

// deploySequence is the fixed configuration sequence the digest walks:
// every configuration in order, then a stride back through them that
// revisits each, with a repeat (no deploy) every fifth step.
func deploySequence(nCfg int) []int {
	seq := make([]int, 0, 3*nCfg)
	for c := 0; c < nCfg; c++ {
		seq = append(seq, c)
	}
	stride := 7
	for nCfg%stride == 0 {
		stride++
	}
	c := nCfg - 1
	for i := 0; i < 2*nCfg; i++ {
		c = (c + stride) % nCfg
		seq = append(seq, c)
		if i%5 == 0 {
			seq = append(seq, c)
		}
	}
	return seq
}

// hashDeploys drives a fresh intake over attr through deploySequence and
// digests every table the Deploy callback sees, inside the callback. It
// returns the digest, the deploy count and how many routed/unrouted
// flips of a source between consecutive deploys the tables showed.
func hashDeploys(t *testing.T, attr Attribution) (sum uint64, deploys, flips int) {
	h := fnv.New64a()
	var prev map[uint32]uint8
	put := func(h hash.Hash64, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	in, err := NewIntake(attr, Config{
		Workers: 1,
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			deploys++
			put(h, uint64(cfgIdx))
			put(h, uint64(len(table)))
			asns := make([]uint32, 0, len(table))
			for asn := range table {
				asns = append(asns, asn)
			}
			slices.Sort(asns)
			for _, asn := range asns {
				put(h, uint64(asn)<<8|uint64(table[asn]))
			}
			if prev != nil {
				for _, asn := range attr.SourceASNs {
					_, was := prev[uint32(asn)]
					_, is := table[uint32(asn)]
					if was != is {
						flips++
					}
				}
			}
			prev = make(map[uint32]uint8, len(table))
			for asn, l := range table {
				prev[asn] = l
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for i, c := range deploySequence(len(attr.Catchments)) {
		if err := in.AdvanceEpoch(int64(i+1), c); err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64(), deploys, flips
}

// TestDeployTableDigest pins the catchment table each deploy hands the
// Deploy callback, on the localize world and on an attribution with
// repeated ASNs, so a change to how the intake renders the table cannot
// move a single entry.
func TestDeployTableDigest(t *testing.T) {
	t.Run("world", func(t *testing.T) {
		attr := localizeAttribution(t)
		sum, deploys, flips := hashDeploys(t, attr)
		// NewIntake's deploy, then one per change of configuration.
		want, cur := 1, attr.InitialConfig
		for _, c := range deploySequence(len(attr.Catchments)) {
			if c != cur {
				want, cur = want+1, c
			}
		}
		if deploys != want {
			t.Fatalf("%d deploys, want %d", deploys, want)
		}
		if flips == 0 {
			t.Fatal("no source flipped between routed and unrouted: the sequence pins no delete")
		}
		if sum != worldTableGolden {
			t.Fatalf("deploy-table digest %#x (%d deploys, %d flips), want %#x", sum, deploys, flips, uint64(worldTableGolden))
		}
	})
	t.Run("repeated-asns", func(t *testing.T) {
		// Sources 0 and 3, and 1 and 4, share an ASN; source 2 is
		// unique. The configurations route and unroute the sharers in
		// every combination.
		n := bgp.NoLink
		attr := Attribution{
			Catchments: [][]bgp.LinkID{
				{0, 1, 0, 1, 0},
				{n, 1, 1, 0, n},
				{n, n, n, n, 0},
				{n, n, 0, 1, n},
				{0, 0, 1, n, n},
			},
			SourceASNs: []topo.ASN{64500, 64501, 64502, 64500, 64501},
			NumLinks:   2,
		}
		sum, _, flips := hashDeploys(t, attr)
		if flips == 0 {
			t.Fatal("no source flipped between routed and unrouted")
		}
		if sum != dupTableGolden {
			t.Fatalf("deploy-table digest %#x, want %#x", sum, uint64(dupTableGolden))
		}
	})
}
