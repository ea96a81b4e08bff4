package stream

import (
	"bytes"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/amp"
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
// producers on two counter shards: every Close must return (no
// double-close panic, no deadlock) and every event accepted before the
// close wins must be accounted.
func TestConcurrentCloseAndIngest(t *testing.T) {
	p, err := New(testAttribution(), Config{
		Workers:         2,
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
		FlushInterval:   time.Millisecond,
		EvalInterval:    5 * time.Millisecond,
		MinRoundPackets: 20,
		Eval: EvalParams{Blocked: func() []bool {
			if blockCfg1.Load() {
				return []bool{false, true, false}
			}
			return nil
		}},
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

// TestShutdownTailBelowGateKeepsSources: Close folds the final round
// under the MinRoundPackets gate like any tick. Sources 0 and 6 share
// link 0 under configuration 0 and split under the one deployed next;
// a shutdown tail of 8 packets from source 0 alone must not eliminate
// source 6.
func TestShutdownTailBelowGateKeepsSources(t *testing.T) {
	p, err := New(testAttribution(), Config{
		Workers:         1,
		EvalInterval:    time.Hour, // only the explicit evaluate below ticks
		MinRoundPackets: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	flushEvents(p.in, bytes.Repeat([]byte{0}, 60)...) // 30 from each source
	p.evaluate(false)
	if d := p.Deployed(); len(d) != 2 || d[1] == 0 {
		t.Fatalf("deployed %v after the full round, want a split of {0,2,4,6}", d)
	}
	flushEvents(p.in, bytes.Repeat([]byte{0}, 8)...) // source 0 only
	p.Close()
	got := p.Candidates()
	for _, src := range []int{0, 6} {
		if !slices.Contains(got, src) {
			t.Fatalf("source %d eliminated by an 8-packet shutdown round: candidates %v", src, got)
		}
	}
}
