package shard

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/fault"
	"spooftrack/internal/provenance"
	"spooftrack/internal/stream"
)

// equivRounds is long enough for the loop to exhaust every
// configuration, so the trailing rounds decide nothing and it does not
// matter that the cluster folds its last round as final while the
// pipeline's ticker folds it as an ordinary one.
const equivRounds = 9

// equivAttr is chaosAttr plus a spare configuration (a duplicate of
// config 0) that no split ever prefers, so it stays available for the
// re-measurement round.
func equivAttr() stream.Attribution {
	attr := chaosAttr()
	attr.Catchments = append(attr.Catchments, append([]bgp.LinkID(nil), attr.Catchments[0]...))
	return attr
}

// equivCallbacks are the per-evaluation inputs both loops consult,
// keyed on how many deployments the loop has made: both loops call
// Deploy synchronously between one fold and the next, so the mask a
// given fold sees is the same in each. Config 1 is quarantined for the
// first reconfiguration only; the attacker is a standing probe-conflict
// hint.
type equivCallbacks struct{ deploys atomic.Int32 }

func (c *equivCallbacks) deploy(int, map[uint32]uint8) { c.deploys.Add(1) }

func (c *equivCallbacks) blocked() []bool {
	if c.deploys.Load() < 2 {
		return []bool{false, true, false, false, false}
	}
	return nil
}

func (c *equivCallbacks) remeasure() []int { return []int{chaosAttackers[0].src} }

// loopEvents renders the loop's own ledger events (chain opener, round,
// reconfiguration, verdict) with sequence numbers and wall stamps
// cleared; membership and failover events, which only the sharded
// controller writes, are dropped.
func loopEvents(t *testing.T, e *provenance.Export) []string {
	t.Helper()
	var out []string
	for _, ev := range e.Events {
		switch ev.Kind {
		case provenance.KindMeta, provenance.KindRow, provenance.KindDeploy,
			provenance.KindRound, provenance.KindReconfig, provenance.KindVerdict:
			ev.Seq, ev.Wall = 0, time.Time{}
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
	}
	return out
}

// TestLedgerEquivalentToSingleNode feeds the same fixed rounds through
// a single-node stream.Pipeline and a 1-shard Cluster with the ledger
// on and asserts the two decision ledgers are the same sequence of
// events, each of which replays.
func TestLedgerEquivalentToSingleNode(t *testing.T) {
	attr := equivAttr()
	roundPkts := int64(0)
	for _, a := range chaosAttackers {
		roundPkts += int64(a.pkts)
	}

	// Single node: MinRoundPackets equals a round's size, so the ticker
	// folds a round exactly when all of it has been flushed.
	var pcb equivCallbacks
	pled := provenance.New(provenance.Options{})
	p, err := stream.New(attr, stream.Config{
		Workers:         2,
		BatchSize:       8,
		FlushInterval:   time.Millisecond,
		EvalInterval:    2 * time.Millisecond,
		MinRoundPackets: roundPkts,
		Ledger:          pled,
		Blocked:         pcb.blocked,
		Remeasure:       pcb.remeasure,
		Deploy:          pcb.deploy,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < equivRounds; r++ {
		deployed := p.Deployed()
		cfg := deployed[len(deployed)-1]
		for _, a := range chaosAttackers {
			for i := 0; i < a.pkts; i++ {
				p.Ingest(chaosEvent(attr, a.src, cfg))
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for p.Status(0).Rounds <= r {
			if time.Now().After(deadline) {
				t.Fatalf("pipeline round %d never folded", r)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	p.Close()

	var ccb equivCallbacks
	cled := provenance.New(provenance.Options{})
	cl := runCluster(t, fault.Profile{Name: "clean"}, 1, 1, equivRounds, func(cc *ClusterConfig) {
		cc.Attr = attr
		cc.MinRoundPackets = roundPkts
		cc.Ledger = cled
		cc.Blocked = ccb.blocked
		cc.Remeasure = ccb.remeasure
		cc.Pipe.Deploy = ccb.deploy
	}, nil)
	cl.Close()

	pe, ce := pled.Export(), cled.Export()
	want, got := loopEvents(t, pe), loopEvents(t, ce)
	if len(want) != len(got) {
		t.Errorf("pipeline ledger has %d loop events, cluster ledger %d", len(want), len(got))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Fatalf("loop event %d differs:\n pipeline %s\n cluster  %s", i, want[i], got[i])
		}
	}

	sawBlocked, sawRemeasure := false, false
	for _, ev := range pe.Events {
		if rc := ev.Reconfig; rc != nil {
			sawBlocked = sawBlocked || len(rc.Blocked) > 0
			sawRemeasure = sawRemeasure || rc.Reason == "remeasure"
		}
	}
	if !sawBlocked || !sawRemeasure {
		t.Errorf("fixture did not exercise both paths: blocked=%v remeasure=%v", sawBlocked, sawRemeasure)
	}

	for name, e := range map[string]*provenance.Export{"pipeline": pe, "cluster": ce} {
		res, err := provenance.Replay(e)
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if !res.Reproduced {
			t.Errorf("%s ledger did not replay: %v", name, res.Mismatches)
		}
	}
}
