package shard

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"net/netip"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/provenance"
	"spooftrack/internal/stats"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

// broadcastGolden is the FNV-64a digest of every EpochUpdate a shard
// node's HandleApply received and every ledger verdict's candidate list
// over broadcastAttack, captured at 2020a3b, while every broadcast still
// copied the evaluator's history and member list and every fold
// allocated a fresh candidate list.
const broadcastGolden uint64 = 0xae78c6ab0423be1b

const (
	broadcastSources = 96
	broadcastConfigs = 20
	broadcastLinks   = 4
	broadcastRounds  = 30
)

// broadcastAttr is a seeded attribution matrix with a twelfth of its
// cells unobserved (bgp.NoLink).
func broadcastAttr() stream.Attribution {
	rng := stats.NewRNG(0xb0a7)
	attr := stream.Attribution{NumLinks: broadcastLinks, SourceASNs: make([]topo.ASN, broadcastSources)}
	for k := range attr.SourceASNs {
		attr.SourceASNs[k] = topo.ASN(64512 + k)
	}
	for c := 0; c < broadcastConfigs; c++ {
		row := make([]bgp.LinkID, broadcastSources)
		for k := range row {
			if rng.Intn(12) == 0 {
				row[k] = bgp.NoLink
			} else {
				row[k] = bgp.LinkID(rng.Intn(broadcastLinks))
			}
		}
		attr.Catchments = append(attr.Catchments, row)
	}
	return attr
}

// broadcastBots are the attacking sources and the packets each sends
// per round; the last stops after round 12.
var broadcastBots = []struct{ src, pkts, stop int }{
	{7, 14, broadcastRounds}, {31, 9, broadcastRounds}, {58, 11, broadcastRounds}, {83, 6, 12},
}

// applyRecorder is the in-process transport with every update a node
// accepted handed to onApply as HandleApply received it.
type applyRecorder struct {
	*LocalTransport
	onApply func(node string, u EpochUpdate)
}

func (r *applyRecorder) Apply(node string, u EpochUpdate) (ApplyResponse, error) {
	resp, err := r.LocalTransport.Apply(node, u)
	if err == nil {
		r.onApply(node, u)
	}
	return resp, err
}

// broadcastAttack runs broadcastBots through a fault-free two-shard
// cluster with the ledger on for broadcastRounds rounds. onApply sees
// every update a node accepted; onRound runs after each step.
func broadcastAttack(t *testing.T, onApply func(string, EpochUpdate), onRound func(int, *Cluster, *provenance.Ledger)) *provenance.Ledger {
	t.Helper()
	attr := broadcastAttr()
	led := provenance.New(provenance.Options{})
	cl, err := NewCluster(ClusterConfig{
		Shards:          2,
		Attr:            attr,
		MinRoundPackets: 1,
		Pipe:            stream.Config{Workers: 2, FlushInterval: time.Millisecond, Ledger: led},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rec := &applyRecorder{LocalTransport: cl.transport, onApply: onApply}
	for _, ct := range cl.ctrls {
		ct.cfg.Transport = rec
	}
	for r := 0; r < broadcastRounds; r++ {
		cfg := cl.Controller().Status().CurrentConfig
		for _, b := range broadcastBots {
			l := attr.Catchments[cfg][b.src]
			if r >= b.stop || l == bgp.NoLink {
				continue
			}
			for i := 0; i < b.pkts; i++ {
				cl.Ingest(amp.Event{
					Time:        time.Now(),
					IngressLink: uint8(l),
					SpoofedSrc:  netip.AddrFrom4([4]byte{198, 51, 100, byte(b.src)}),
					WireLen:     64,
				})
			}
		}
		if _, err := cl.Step(r == broadcastRounds-1); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if onRound != nil {
			onRound(r, cl, led)
		}
	}
	return led
}

// TestBroadcastDigest pins what a live attack's broadcasts carry and
// what its ledger's verdicts name: every EpochUpdate a node's
// HandleApply received (term, epoch, configuration, members, the
// snapshot's deployments and each round's configuration and volume
// bits) and every verdict's candidate list, FNV-digested.
func TestBroadcastDigest(t *testing.T) {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	applies, rounds, deploys := 0, 0, 0
	led := broadcastAttack(t, func(node string, u EpochUpdate) {
		applies++
		rounds, deploys = len(u.Snapshot.Rounds), len(u.Snapshot.Deployed)
		hashString(h, node)
		put(u.Term)
		put(uint64(u.Epoch))
		put(uint64(u.Config))
		put(uint64(len(u.Members)))
		for _, m := range u.Members {
			hashString(h, m)
		}
		put(uint64(len(u.Snapshot.Deployed)))
		for _, c := range u.Snapshot.Deployed {
			put(uint64(c))
		}
		put(uint64(len(u.Snapshot.Rounds)))
		for _, r := range u.Snapshot.Rounds {
			put(uint64(r.Config))
			put(uint64(len(r.Volumes)))
			for _, v := range r.Volumes {
				put(math.Float64bits(v))
			}
		}
	}, nil)
	verdicts, last := 0, 0
	for _, ev := range led.Export().Events {
		if v := ev.Verdict; v != nil {
			verdicts++
			last = len(v.Candidates)
			put(uint64(len(v.Candidates)))
			for _, k := range v.Candidates {
				put(uint64(k))
			}
		}
	}
	// The attack must reach what the digest claims to pin: every round
	// folded and broadcast to both shards, several deployments, and a
	// candidate set that shrank to under half the sources.
	if rounds != broadcastRounds || applies < 2*broadcastRounds || deploys < 4 || verdicts != broadcastRounds ||
		last == 0 || last > broadcastSources/2 {
		t.Fatalf("attack folded %d rounds over %d applies, %d deployments, %d verdicts, %d final candidates", rounds, applies, deploys, verdicts, last)
	}
	if got := h.Sum64(); got != broadcastGolden {
		t.Errorf("broadcast digest %#x, want %#x", got, broadcastGolden)
	}
}

func hashString(h hash.Hash64, s string) {
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(s))))
	h.Write([]byte(s))
}
