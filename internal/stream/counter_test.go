package stream

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/metrics"
)

// TestPartialSlabFoldsOnTick: a round folds with no further Ingest — the
// evaluation tick's harvest merges the shard's counters — within a flush
// tick plus an evaluation tick (2×FlushInterval here).
func TestPartialSlabFoldsOnTick(t *testing.T) {
	const (
		batch = 8
		n     = 3*batch + 5
		flush = 40 * time.Millisecond
	)
	p, err := New(testAttribution(), Config{
		Workers:         1,
		FlushInterval:   flush,
		EvalInterval:    flush / 2,
		MinRoundPackets: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < n; i++ {
		if !p.Ingest(testEvent(0)) {
			t.Fatal("Ingest rejected an event while open")
		}
	}
	last := time.Now()
	for {
		p.mu.Lock()
		var vols []float64
		if len(p.eval.rounds) > 0 {
			vols = p.eval.rounds[0].Volumes
		}
		p.mu.Unlock()
		if vols != nil {
			if got := vols[0] + vols[1]; got != n {
				t.Fatalf("folded round holds %v packets, want %d", got, n)
			}
			return
		}
		if time.Since(last) > 2*flush {
			t.Fatalf("a round of %d events not folded within 2×FlushInterval; %d accounted", n, p.TotalEvents())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRoundCutCarriesEveryWorker: two flows on different counter
// shards, one as large as MinRoundPackets and one smaller, with no flush
// or evaluation tick of their own. The loud flow alone crosses the
// threshold; the fold must still bring in the quiet one, so every folded
// round carries both links.
func TestRoundCutCarriesEveryWorker(t *testing.T) {
	const (
		loudN  = 16
		quietN = 10
	)
	p, err := New(testAttribution(), Config{
		Workers:         2,
		FlushInterval:   time.Hour,
		EvalInterval:    time.Hour, // only the explicit evaluate below ticks
		MinRoundPackets: loudN,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	loud, soft := testEvent(0), testEvent(1)
	if shardOf(&loud, 2) == shardOf(&soft, 2) {
		t.Fatal("test flows hash to one shard; pick another spoofed source or link")
	}
	for r := 1; r <= 3; r++ {
		for i := 0; i < quietN; i++ {
			p.Ingest(soft)
		}
		for i := 0; i < loudN; i++ {
			p.Ingest(loud)
		}
		p.evaluate(false)
		p.mu.Lock()
		rounds := p.eval.rounds
		p.mu.Unlock()
		if len(rounds) != r {
			t.Fatalf("%d rounds folded after evaluation %d", len(rounds), r)
		}
		if vols := rounds[r-1].Volumes; vols[0] != loudN || vols[1] != quietN {
			t.Fatalf("round %d folded volumes %v; want %d on link 0 and %d on link 1",
				r, vols, loudN, quietN)
		}
	}
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within five seconds")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestConcurrentRoundProtocolAccountsOnce: four producers ingest on two
// counter shards while a controller loop harvests and advances the
// epoch (switching configuration, so settle windows open too) and a
// reader polls Status. Every accepted event must end up exactly once in
// a folded round (the last harvest before each advance, and the final
// one after Close) or in the settle-excluded count: never lost, never
// counted twice.
func TestConcurrentRoundProtocolAccountsOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	in, err := NewIntake(testAttribution(), Config{
		Workers:       2,
		FlushInterval: 200 * time.Microsecond,
		Settle:        50 * time.Microsecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 5000
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ev := testEvent(0)
			ev.SpoofedSrc = netip.AddrFrom4([4]byte{203, 0, 113, byte(g)})
			for i := 0; i < perProducer; i++ {
				ev.IngressLink = uint8(i % 2)
				ev.Time = time.Now()
				if in.Ingest(ev) {
					accepted.Add(1)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
				in.Status()
				in.TotalEvents()
			}
		}
	}()
	folded := int64(0)
	readers.Add(1)
	go func() {
		defer readers.Done()
		for e := int64(1); ; e++ {
			select {
			case <-done:
				return
			default:
			}
			h := in.HarvestRound()
			folded += sum(h.Pkts)
			if err := in.AdvanceEpoch(e, int(e%3)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	in.Close()
	final := in.HarvestRound()
	folded += sum(final.Pkts)

	if final.Total != accepted.Load() || in.TotalEvents() != accepted.Load() {
		t.Fatalf("intake counted %d (TotalEvents %d) of %d accepted events",
			final.Total, in.TotalEvents(), accepted.Load())
	}
	if folded+final.Settled != final.Total {
		t.Fatalf("folded %d + settle-excluded %d = %d, want the %d accepted",
			folded, final.Settled, folded+final.Settled, final.Total)
	}
	if got := reg.Counter("stream_settle_excluded_total").Value(); got != final.Settled {
		t.Fatalf("stream_settle_excluded_total = %d, status says %d", got, final.Settled)
	}
	if got := reg.Counter("stream_events_total").Value(); got != final.Total {
		t.Fatalf("stream_events_total = %d, status says %d", got, final.Total)
	}
	if final.Epoch < 2 {
		t.Fatalf("the controller loop advanced only to epoch %d", final.Epoch)
	}
}

// TestStaleShardBatchIsSettleExcluded: events counted under epoch e and
// merged only after AdvanceEpoch(e+1) — no tick or read merged them
// before it — were stamped under the old round. They are settle-excluded
// and absent from round e+1, which counts only what arrives after the
// advance.
func TestStaleShardBatchIsSettleExcluded(t *testing.T) {
	in, err := NewIntake(testAttribution(), Config{Workers: 1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for i := 0; i < 5; i++ {
		in.Ingest(testEvent(0))
	}
	if err := in.AdvanceEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	h := in.HarvestRound()
	if h.Epoch != 1 || h.Pkts[0] != 0 || h.Pkts[1] != 0 || h.Settled != 5 || h.Total != 5 {
		t.Fatalf("harvest after the advance = %+v, want epoch 1, empty round, 5 settle-excluded of 5", h)
	}
	in.Ingest(testEvent(1))
	in.Ingest(testEvent(1))
	h = in.HarvestRound()
	if h.Pkts[0] != 0 || h.Pkts[1] != 2 || h.Settled != 5 || h.Total != 7 {
		t.Fatalf("harvest of round 1 = %+v, want 2 packets on link 1, 5 settle-excluded of 7", h)
	}
}

// TestCloseMergesShardsAndRejects: after Close the round holds every
// event Ingest accepted on either counter shard, and every later event
// is refused.
func TestCloseMergesShardsAndRejects(t *testing.T) {
	in, err := NewIntake(testAttribution(), Config{Workers: 2, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	loud, soft := testEvent(0), testEvent(1)
	const n = 40
	for i := 0; i < n/2; i++ {
		in.Ingest(loud)
		in.Ingest(soft)
	}
	in.Close()
	if got := in.TotalEvents(); got != n {
		t.Fatalf("Close merged %d of %d events", got, n)
	}
	if in.Ingest(loud) {
		t.Fatal("Ingest accepted an event after Close")
	}
	if h := in.Status(); h.Pkts[0] != n/2 || h.Pkts[1] != n/2 || h.Total != n {
		t.Fatalf("status after Close = %+v, want %d packets per link", h, n/2)
	}
}

// TestConcurrentDeploysNeverOverlap: advances from several goroutines
// deploy one at a time, so each Deploy callback reads the table whole
// while no other deploy refreshes it. Under -race an overlapping
// refresh is also a reported map race.
func TestConcurrentDeploysNeverOverlap(t *testing.T) {
	attr := testAttribution()
	var inside atomic.Bool
	in, err := NewIntake(attr, Config{Workers: 1, Deploy: func(cfgIdx int, table map[uint32]uint8) {
		if !inside.CompareAndSwap(false, true) {
			t.Error("two deploys of one intake overlapped")
		}
		for k, asn := range attr.SourceASNs {
			if got, want := table[uint32(asn)], uint8(attr.Catchments[cfgIdx][k]); got != want {
				t.Errorf("config %d: source %d routed on link %d, want %d", cfgIdx, k, got, want)
			}
		}
		inside.Store(false)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var epoch atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				e := epoch.Add(1)
				// A later epoch may have advanced first: that advance is
				// refused as stale, which is not what this test checks.
				_ = in.AdvanceEpoch(e, int(e%int64(len(attr.Catchments))))
			}
		}()
	}
	wg.Wait()
}
