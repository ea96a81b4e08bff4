package stream

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/provenance"
)

// TestRemeasureHints drives the closed loop with a probe-conflict hint
// on the attacker and one spare configuration the greedy splitter never
// needs (a duplicate of config 0). Once localization can no longer
// split, the controller must spend the spare configuration re-observing
// the hinted source and record the decision in the provenance ledger
// with the hint set that drove it.
func TestRemeasureHints(t *testing.T) {
	attr := testAttribution()
	// Config 3 duplicates config 0: it can never increase the cluster
	// count, so the split scheduler skips it and it stays available for
	// the re-measurement round.
	attr.Catchments = append(attr.Catchments, append([]bgp.LinkID(nil), attr.Catchments[0]...))
	const attacker = 5
	victim := netip.MustParseAddr("192.0.2.66")

	led := provenance.New(provenance.Options{})
	var current atomic.Int32
	p, err := New(attr, Config{
		Workers:         2,
		FlushInterval:   2 * time.Millisecond,
		EvalInterval:    10 * time.Millisecond,
		MinRoundPackets: 100,
		Settle:          3 * time.Millisecond,
		Ledger:          led,
		Eval:            EvalParams{Remeasure: func() []int { return []int{attacker} }},
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			current.Store(int32(cfgIdx))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cfg := int(current.Load())
			p.Ingest(amp.Event{
				Time:        time.Now(),
				IngressLink: uint8(attr.Catchments[cfg][attacker]),
				SpoofedSrc:  victim,
				WireLen:     24,
			})
			time.Sleep(50 * time.Microsecond)
		}
	}()

	deadline := time.After(10 * time.Second)
	for !p.Converged() {
		select {
		case <-deadline:
			t.Fatalf("did not converge; deployed %v", p.Deployed())
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	gen.Wait()
	p.Close()

	// The duplicate configuration only enters the deployment sequence
	// through the re-measurement path.
	sawSpare := false
	for _, c := range p.Deployed() {
		if c == 3 {
			sawSpare = true
		}
	}
	if !sawSpare {
		t.Fatalf("spare config 3 never deployed; deployed = %v", p.Deployed())
	}

	// The ledger must carry the decision: a reconfig event with reason
	// "remeasure", the spare configuration chosen, and the hint set
	// that drove it.
	var remeasures []provenance.ReconfigEvent
	for _, ev := range led.Export().Events {
		if ev.Kind == provenance.KindReconfig && ev.Reconfig.Reason == "remeasure" {
			remeasures = append(remeasures, *ev.Reconfig)
		}
	}
	if len(remeasures) == 0 {
		t.Fatal("no remeasure reconfig event in the ledger")
	}
	rm := remeasures[0]
	if rm.Chosen != 3 {
		t.Fatalf("remeasure chose config %d, want 3", rm.Chosen)
	}
	if len(rm.Hints) != 1 || rm.Hints[0] != attacker {
		t.Fatalf("remeasure hints = %v, want [%d]", rm.Hints, attacker)
	}
}
