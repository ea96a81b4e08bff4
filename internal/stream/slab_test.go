package stream

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPartialSlabFoldsOnTick: a round that does not fill its last slab
// still folds with no further Ingest — the worker takes the partially
// filled slab on its flush tick — within a flush tick plus an
// evaluation tick (2×FlushInterval here).
func TestPartialSlabFoldsOnTick(t *testing.T) {
	const (
		batch = 8
		n     = 3*batch + 5 // k·BatchSize + r
		flush = 40 * time.Millisecond
	)
	p, err := New(testAttribution(), Config{
		Workers:         1,
		QueueDepth:      8 * batch,
		BatchSize:       batch,
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
	for p.Status(0).Rounds == 0 {
		if time.Since(last) > 2*flush {
			t.Fatalf("a round of %d events (%d full slabs + %d) not folded within 2×FlushInterval; %d accounted",
				n, n/batch, n%batch, p.TotalEvents())
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Status(0).History[0].Packets; got != n {
		t.Fatalf("folded round holds %d packets, want %d", got, n)
	}
}

// TestRoundCutCarriesEveryWorker: two flows on different workers, one
// filling a slab (flushed at once) and one leaving a partial slab (which
// waits for its worker's FlushInterval tick), with EvalInterval well
// under FlushInterval and MinRoundPackets equal to the first flow's
// burst. The evaluation tick crosses the threshold on the first flow
// alone; the cut must still bring in the second, so every folded round
// carries both links.
func TestRoundCutCarriesEveryWorker(t *testing.T) {
	const (
		batch = 16
		quiet = 10
	)
	p, err := New(testAttribution(), Config{
		Workers:         2,
		BatchSize:       batch,
		FlushInterval:   time.Second,
		EvalInterval:    2 * time.Millisecond,
		MinRoundPackets: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	loud, soft := testEvent(0), testEvent(1)
	if shardOf(&loud, 2) == shardOf(&soft, 2) {
		t.Fatal("test flows hash to one worker; pick another spoofed source or link")
	}
	for r := 1; r <= 3; r++ {
		// The partial slab first, so it is accepted before the full one
		// can trigger a fold.
		for i := 0; i < quiet; i++ {
			p.Ingest(soft)
		}
		for i := 0; i < batch; i++ {
			p.Ingest(loud)
		}
		waitUntil(t, func() bool { return p.Status(0).Rounds >= r })
		rec := p.Status(0).History[r-1]
		p.mu.Lock()
		vols := p.eval.rounds[r-1].Volumes
		p.mu.Unlock()
		if rec.Packets != batch+quiet || vols[0] == 0 || vols[1] == 0 {
			t.Fatalf("round %d folded %d packets, volumes %v; want %d over both links",
				r, rec.Packets, vols, batch+quiet)
		}
	}
}

// TestCloseWithProducerBlockedOnSlab: Close issued while a producer is
// blocked waiting for a free slab (the worker wedged behind the state
// mutex) returns once the worker recovers and accounts every event
// Ingest accepted; the blocked producer gets a slab back, finds the
// intake closed and is refused.
func TestCloseWithProducerBlockedOnSlab(t *testing.T) {
	p, err := New(testAttribution(), Config{
		Workers:         1,
		QueueDepth:      4,
		BatchSize:       2,
		FlushInterval:   time.Millisecond,
		MinRoundPackets: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.in.mu.Lock()
	var accepted atomic.Int64
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < 64; i++ {
			if p.Ingest(testEvent(uint8(i % 2))) {
				accepted.Add(1)
			}
		}
	}()
	// Two slabs of two, neither free and none being filled: the worker
	// is wedged, so the producer's next event waits for a free slab.
	q := &p.in.shards[0]
	waitUntil(t, func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.accepted >= 4 && q.cur == nil && len(q.free) == 0
	})
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	waitUntil(t, func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.closed
	})
	p.in.mu.Unlock()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the worker recovered")
	}
	<-produced
	if got := p.TotalEvents(); got != accepted.Load() {
		t.Fatalf("accounted %d of %d accepted events", got, accepted.Load())
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

// TestShedAccountsEveryAcceptedEvent: with Shed on and the worker
// wedged, every event Ingest accepted is either accounted or counted as
// dropped — none vanishes in a slab.
func TestShedAccountsEveryAcceptedEvent(t *testing.T) {
	p, err := New(testAttribution(), Config{
		Workers:         1,
		QueueDepth:      6,
		BatchSize:       2,
		FlushInterval:   time.Millisecond,
		MinRoundPackets: 1 << 40,
		Shed:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the worker behind the state mutex it flushes under.
	p.in.mu.Lock()
	accepted := int64(0)
	deadline := time.Now().Add(5 * time.Second)
	for p.Dropped() < 10 {
		if time.Now().After(deadline) {
			p.in.mu.Unlock()
			t.Fatal("no drops despite a wedged consumer")
		}
		if p.Ingest(testEvent(uint8(accepted % 2))) {
			accepted++
		}
	}
	p.in.mu.Unlock()
	p.Close()
	if got := p.TotalEvents() + p.Dropped(); got != accepted {
		t.Fatalf("accounted %d + dropped %d = %d, want the %d accepted",
			p.TotalEvents(), p.Dropped(), got, accepted)
	}
}
