package stream

import (
	"testing"

	"spooftrack/internal/metrics"
)

// TestEpochBoundaryBatchFlush pins the worker-side epoch boundary: a
// batch accumulated under epoch E must be flushed before an event from
// epoch E+1 is admitted into it (the b.epoch != e path in accumulate),
// and the flushed stale batch's per-link counts must be excluded from
// the new round's counters while still reaching the totals.
func TestEpochBoundaryBatchFlush(t *testing.T) {
	p, err := New(testAttribution(), Config{
		Workers:         1,
		BatchSize:       1024,
		MinRoundPackets: 1 << 40, // suppress controller folds
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	in := p.in

	b := newBatch(in.attr.NumLinks)
	in.accumulate(b, testEvent(0), nil)
	in.accumulate(b, testEvent(0), nil)
	if b.epoch != 0 || b.events != 2 {
		t.Fatalf("batch under epoch %d with %d events, want epoch 0 with 2", b.epoch, b.events)
	}

	// Fold the round the way the controller does: bump the epoch. The
	// batch in hand is now stale — its round no longer exists.
	in.mu.Lock()
	in.st.epoch++
	in.epoch.Store(in.st.epoch)
	in.mu.Unlock()

	// Admitting an epoch-1 event must flush the stale batch first and
	// start a fresh batch under the new epoch.
	in.accumulate(b, testEvent(1), nil)
	if b.events != 1 {
		t.Fatalf("stale batch not flushed before admitting an epoch-1 event (%d events)", b.events)
	}
	if b.epoch != 1 {
		t.Fatalf("new batch under epoch %d, want 1", b.epoch)
	}

	in.mu.Lock()
	leaked := in.st.roundPkts[0]
	total := in.st.total
	settled := in.st.settled
	in.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("stale epoch-0 packets leaked into the new round: roundPkts[0] = %d", leaked)
	}
	if total != 2 {
		t.Fatalf("stale batch total = %d, want 2 (stale events still count toward totals)", total)
	}
	if settled != 2 {
		t.Fatalf("stale batch excluded count = %d, want 2", settled)
	}

	// The live epoch-1 batch flushes into the new round normally.
	in.flush(b, nil)
	in.mu.Lock()
	inRound := in.st.roundPkts[1]
	total = in.st.total
	in.mu.Unlock()
	if inRound != 1 {
		t.Fatalf("epoch-1 event missing from the new round: roundPkts[1] = %d", inRound)
	}
	if total != 3 {
		t.Fatalf("total = %d after live flush, want 3", total)
	}
}

// flushEvents pushes one single-event batch per link straight into the
// intake's round, bypassing the worker queues.
func flushEvents(in *Intake, links ...uint8) {
	b := newBatch(in.attr.NumLinks)
	for _, l := range links {
		in.accumulate(b, testEvent(l), nil)
	}
	in.flush(b, nil)
}

// TestRelayHarvestAdvance pins the Intake contract a sharded-ingest
// controller drives: harvests are non-consuming snapshots, AdvanceEpoch
// resets counters and deploys the new configuration, stale epochs are
// rejected, and re-applying the current (epoch, config) is an
// idempotent no-op.
func TestRelayHarvestAdvance(t *testing.T) {
	var deploys []int
	in, err := NewIntake(testAttribution(), Config{
		Workers:   1,
		BatchSize: 1,
		Deploy:    func(cfgIdx int, table map[uint32]uint8) { deploys = append(deploys, cfgIdx) },
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
