package stream

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/provenance"
)

// transcriptGolden is the FNV-64a digest of everything the single-node
// loop says about a fixed attack fed one round at a time: the deployed
// sequence, each round record's configuration, packets, bytes, clusters
// and candidates, the event and settle-excluded totals, and the loop's
// ledger events with sequence numbers and wall stamps cleared. Captured
// at eb31f14, while the loop still folded under the intake's mutex.
const transcriptGolden = 0x7dcfe0ba559c3949

const transcriptRounds = 6

// transcriptAttackers are the sources the fixed rounds carry and how
// many packets each sends per round.
var transcriptAttackers = []struct{ src, pkts int }{{5, 30}, {7, 20}}

// TestPipelineTranscriptDigest pins the single-node loop's round
// lifecycle — cut, fold, record, advance, deploy — end to end: two
// workers, the ledger on, configuration 1 quarantined until the second
// deployment, and a standing re-measurement hint on the first attacker,
// over an attribution with a spare configuration (a duplicate of
// configuration 0) that only a re-measurement deploys.
func TestPipelineTranscriptDigest(t *testing.T) {
	attr := testAttribution()
	attr.Catchments = append(attr.Catchments, append([]bgp.LinkID(nil), attr.Catchments[0]...))
	roundPkts := int64(0)
	for _, a := range transcriptAttackers {
		roundPkts += int64(a.pkts)
	}

	var deploys atomic.Int32
	led := provenance.New(provenance.Options{})
	p, err := New(attr, Config{
		Workers:         2,
		FlushInterval:   time.Millisecond,
		EvalInterval:    2 * time.Millisecond,
		MinRoundPackets: roundPkts,
		Ledger:          led,
		Eval: EvalParams{
			Blocked: func() []bool {
				if deploys.Load() < 2 {
					return []bool{false, true, false, false}
				}
				return nil
			},
			Remeasure: func() []int { return []int{transcriptAttackers[0].src} },
		},
		Deploy: func(int, map[uint32]uint8) { deploys.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < transcriptRounds; r++ {
		deployed := p.Deployed()
		cfg := deployed[len(deployed)-1]
		for _, a := range transcriptAttackers {
			for i := 0; i < a.pkts; i++ {
				p.Ingest(amp.Event{
					Time:        time.Now(),
					IngressLink: uint8(attr.Catchments[cfg][a.src]),
					SpoofedSrc:  netip.AddrFrom4([4]byte{192, 0, 2, byte(a.src)}),
					WireLen:     24,
				})
			}
		}
		waitUntil(t, func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.eval.Rounds() > r
		})
	}
	p.Close()

	// Every fixture event is 24 bytes on the wire, so a round's bytes are
	// 24 per packet (TestIntakeAccountingDigest pins the byte counting).
	h := fnv.New64a()
	fmt.Fprintf(h, "deployed %v\n", p.Deployed())
	events := led.Export().Events
	var rounds []*provenance.RoundEvent
	for _, ev := range events {
		if rd := ev.Round; ev.Kind == provenance.KindRound && rd != nil {
			rounds = append(rounds, rd)
			fmt.Fprintf(h, "round config=%d packets=%d bytes=%d clusters=%d candidates=%d\n",
				rd.Config, rd.Packets, 24*rd.Packets, rd.Clusters, rd.Candidates)
		}
	}
	fmt.Fprintf(h, "events %d settled %d\n", p.TotalEvents(), p.in.Status().Settled)
	sawBlocked, sawRemeasure := false, false
	for _, ev := range events {
		if rc := ev.Reconfig; rc != nil {
			sawBlocked = sawBlocked || len(rc.Blocked) > 0
			sawRemeasure = sawRemeasure || rc.Reason == "remeasure"
		}
		ev.Seq, ev.Wall = 0, time.Time{}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
	if !sawBlocked || !sawRemeasure {
		t.Fatalf("fixture did not exercise both paths: blocked=%v remeasure=%v", sawBlocked, sawRemeasure)
	}
	if got := h.Sum64(); got != transcriptGolden {
		t.Fatalf("transcript digest = %#x, want %#x: deployed %v, rounds %+v", got, uint64(transcriptGolden), p.Deployed(), rounds)
	}
}
