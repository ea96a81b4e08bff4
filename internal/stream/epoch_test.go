package stream

import (
	"testing"

	"spooftrack/internal/metrics"
)

// flushEvents ingests one event per link, in order.
func flushEvents(in *Intake, links ...uint8) {
	for _, l := range links {
		in.Ingest(testEvent(l))
	}
}

// TestRelayHarvestAdvance pins the Intake contract a sharded-ingest
// controller drives: harvests are non-consuming snapshots, AdvanceEpoch
// resets counters and deploys the new configuration, stale epochs are
// rejected, and re-applying the current (epoch, config) is an
// idempotent no-op.
func TestRelayHarvestAdvance(t *testing.T) {
	var deploys []int
	in, err := NewIntake(testAttribution(), Config{
		Workers: 1,
		Deploy:  func(cfgIdx int, table map[uint32]uint8) { deploys = append(deploys, cfgIdx) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	flushEvents(in, 0, 1)

	h := in.HarvestRound()
	if h.Epoch != 0 || h.Pkts[0] != 1 || h.Pkts[1] != 1 || h.Total != 2 {
		t.Fatalf("harvest = %+v, want epoch 0 with one packet per link", h)
	}
	// Harvesting again returns the same snapshot — collection is
	// non-consuming until the epoch advances.
	if h2 := in.HarvestRound(); h2.Pkts[0] != 1 || h2.Total != 2 {
		t.Fatalf("second harvest consumed counters: %+v", h2)
	}

	if err := in.AdvanceEpoch(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := in.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after advance, want 1", got)
	}
	if h := in.HarvestRound(); h.Pkts[0] != 0 || h.Pkts[1] != 0 {
		t.Fatalf("advance did not reset round counters: %+v", h)
	}
	if len(deploys) != 2 || deploys[1] != 2 {
		t.Fatalf("deploys = %v, want [initial, 2]", deploys)
	}

	// Stale epoch: rejected. Idempotent re-apply: accepted, no deploy.
	if err := in.AdvanceEpoch(0, 0); err == nil {
		t.Fatal("stale epoch accepted")
	}
	if err := in.AdvanceEpoch(1, 2); err != nil {
		t.Fatalf("idempotent re-apply rejected: %v", err)
	}
	if len(deploys) != 2 {
		t.Fatalf("idempotent re-apply re-deployed: %v", deploys)
	}
	if st := in.Status(); st.Epoch != 1 || st.Config != 2 || st.Total != 2 {
		t.Fatalf("intake status = %+v, want epoch 1 on config 2 with 2 events", st)
	}

	// The type enforces what a doc comment used to ask for: nothing
	// outside the local fold can take a Pipeline's round.
	var p any = (*Pipeline)(nil)
	if _, ok := p.(interface{ AdvanceEpoch(int64, int) error }); ok {
		t.Fatal("*Pipeline must not export AdvanceEpoch: a caller could race the local fold")
	}
}

// TestAdvanceCountsUnharvestedResidue: packets that reach the round
// after its last harvest can be folded by nobody, so the advance that
// zeroes them books them as settle-excluded — on a shard, total ==
// folded + excluded.
func TestAdvanceCountsUnharvestedResidue(t *testing.T) {
	reg := metrics.NewRegistry()
	in, err := NewIntake(testAttribution(), Config{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	excluded := func() int64 {
		st := in.Status()
		if got := reg.Counter("stream_settle_excluded_total").Value(); got != st.Settled {
			t.Fatalf("stream_settle_excluded_total = %d, status says %d", got, st.Settled)
		}
		return st.Settled
	}

	// Harvest two, flush three more before the apply lands.
	flushEvents(in, 0, 1)
	folded := in.HarvestRound().Pkts
	flushEvents(in, 0, 0, 1)
	if err := in.AdvanceEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	if got := excluded(); got != 3 {
		t.Fatalf("excluded = %d after 3 late events, want 3", got)
	}
	if total := in.TotalEvents(); total != folded[0]+folded[1]+excluded() {
		t.Fatalf("total %d != folded %v + excluded %d", total, folded, excluded())
	}

	// Idempotent re-apply zeroes nothing, so it books nothing — even
	// with un-harvested packets sitting in the round.
	flushEvents(in, 1, 1)
	if err := in.AdvanceEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	if got := excluded(); got != 3 {
		t.Fatalf("idempotent re-apply booked %d packets", got-3)
	}

	// A round advanced past without ever being harvested (the controller
	// discarded it) is booked whole: the two above plus two more.
	flushEvents(in, 0, 1)
	if err := in.AdvanceEpoch(2, 0); err != nil {
		t.Fatal(err)
	}
	if got := excluded(); got != 7 {
		t.Fatalf("excluded = %d after an un-harvested round of 4, want 7", got)
	}
}
