package stream

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/metrics"
)

func testEvent(link uint8) amp.Event {
	return amp.Event{
		Time:        time.Now(),
		IngressLink: link,
		SpoofedSrc:  netip.MustParseAddr("198.51.100.7"),
		WireLen:     24,
	}
}

// TestCloseIdempotent: repeated Close calls are no-ops after the first.
func TestCloseIdempotent(t *testing.T) {
	p, err := New(testAttribution(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Close()
	}
	if p.Ingest(testEvent(0)) {
		t.Fatal("Ingest accepted an event after Close")
	}
}

// TestConcurrentCloseAndIngest races many closers against many
// producers: every Close must return (no double-close panic, no
// deadlock) and every event accepted before the close wins must be
// accounted.
func TestConcurrentCloseAndIngest(t *testing.T) {
	p, err := New(testAttribution(), Config{
		Workers:         2,
		QueueDepth:      4,
		BatchSize:       1,
		FlushInterval:   time.Millisecond,
		MinRoundPackets: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if p.Ingest(testEvent(uint8(i % 2))) {
					accepted.Add(1)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			p.Close()
		}()
	}
	wg.Wait()
	p.Close()
	if got := p.TotalEvents(); got != accepted.Load() {
		t.Fatalf("accounted %d of %d accepted events", got, accepted.Load())
	}
}

// TestShedOverload: with Shed on and the single worker wedged behind the
// state mutex, full queues drop (with accounting and a degraded flag)
// instead of blocking the producer; once the consumer recovers, the
// controller clears the flag.
func TestShedOverload(t *testing.T) {
	reg := metrics.NewRegistry()
	p, err := New(testAttribution(), Config{
		Workers:         1,
		QueueDepth:      2,
		BatchSize:       1,
		FlushInterval:   time.Millisecond,
		EvalInterval:    2 * time.Millisecond,
		MinRoundPackets: 1 << 40,
		Shed:            true,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Wedge the worker: it needs in.mu to flush its single-event batches,
	// so holding the mutex backs the shard queue up.
	p.in.mu.Lock()
	deadline := time.Now().Add(5 * time.Second)
	for p.Dropped() == 0 {
		if time.Now().After(deadline) {
			p.in.mu.Unlock()
			t.Fatal("no drops despite a wedged consumer")
		}
		p.Ingest(testEvent(0))
	}
	dropped := p.Dropped()
	p.in.mu.Unlock()

	if !p.Degraded() {
		t.Fatal("drops must raise the degraded flag")
	}
	if got := reg.Counter("stream_dropped_total").Value(); got < dropped {
		t.Fatalf("stream_dropped_total = %d, want ≥ %d", got, dropped)
	}
	if !p.Status(3).Degraded || p.Status(3).DroppedEvents < dropped {
		t.Fatalf("status does not surface degradation: %+v", p.Status(3))
	}
	// Consumer recovered: queues drain, drops stop, the controller
	// clears the flag.
	deadline = time.Now().Add(5 * time.Second)
	for p.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("degraded flag never cleared after recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if p.Ingest(testEvent(0)) != true {
		t.Fatal("pipeline must stay open throughout shedding")
	}
}

// TestDegradedRecoveryHook: with a DegradedRecovery oracle configured,
// drained queues and a quiet drop counter are necessary but not
// sufficient — the flag stays raised until the oracle agrees, and
// clears promptly once it does.
func TestDegradedRecoveryHook(t *testing.T) {
	var recovered atomic.Bool // oracle answer; starts false
	p, err := New(testAttribution(), Config{
		Workers:          1,
		QueueDepth:       2,
		BatchSize:        1,
		FlushInterval:    time.Millisecond,
		EvalInterval:     2 * time.Millisecond,
		MinRoundPackets:  1 << 40,
		Shed:             true,
		DegradedRecovery: func() bool { return recovered.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Force drops the same way TestShedOverload does: wedge the worker
	// behind the state mutex until the tiny shard queue overflows.
	p.in.mu.Lock()
	deadline := time.Now().Add(5 * time.Second)
	for p.Dropped() == 0 {
		if time.Now().After(deadline) {
			p.in.mu.Unlock()
			t.Fatal("no drops despite a wedged consumer")
		}
		p.Ingest(testEvent(0))
	}
	p.in.mu.Unlock()
	if !p.Degraded() {
		t.Fatal("drops must raise the degraded flag")
	}

	// Queues drain and drops stop, but the oracle still says no: the
	// flag must hold across many controller evaluations.
	evals := p.in.cfg.Metrics.Counter("stream_evals_total")
	base := evals.Value()
	deadline = time.Now().Add(5 * time.Second)
	for evals.Value() < base+5 {
		if time.Now().After(deadline) {
			t.Fatal("controller stopped evaluating")
		}
		time.Sleep(time.Millisecond)
	}
	if !p.Degraded() {
		t.Fatal("degraded flag cleared while the recovery oracle said no")
	}

	// Oracle flips: the next evaluation with drained queues clears it.
	recovered.Store(true)
	deadline = time.Now().Add(5 * time.Second)
	for p.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("degraded flag never cleared after the oracle agreed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBlockedConfigRouting: the controller routes around quarantined
// configurations and deploys them once unblocked.
func TestBlockedConfigRouting(t *testing.T) {
	attr := testAttribution()
	var blockCfg1 atomic.Bool
	blockCfg1.Store(true)
	var deployedMu sync.Mutex
	var deployedOrder []int
	p, err := New(attr, Config{
		Workers:         1,
		BatchSize:       4,
		FlushInterval:   time.Millisecond,
		EvalInterval:    5 * time.Millisecond,
		MinRoundPackets: 20,
		Blocked: func() []bool {
			if blockCfg1.Load() {
				return []bool{false, true, false}
			}
			return nil
		},
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			deployedMu.Lock()
			deployedOrder = append(deployedOrder, cfgIdx)
			deployedMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	feed := func(n int) {
		for i := 0; i < n; i++ {
			// Two sources on different links so every config can split
			// something.
			p.Ingest(testEvent(0))
			p.Ingest(testEvent(1))
		}
	}
	// First reconfiguration must avoid blocked config 1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		feed(30)
		deployedMu.Lock()
		n := len(deployedOrder)
		deployedMu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no reconfiguration while config 1 was blocked")
		}
		time.Sleep(2 * time.Millisecond)
	}
	deployedMu.Lock()
	second := deployedOrder[1]
	deployedMu.Unlock()
	if second == 1 {
		t.Fatal("controller deployed a quarantined configuration")
	}
	// Unblock: config 1 becomes eligible and is eventually deployed.
	blockCfg1.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		feed(30)
		deployedMu.Lock()
		saw1 := false
		for _, c := range deployedOrder {
			if c == 1 {
				saw1 = true
			}
		}
		deployedMu.Unlock()
		if saw1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unblocked configuration was never deployed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
