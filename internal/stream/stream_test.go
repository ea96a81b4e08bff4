package stream

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/metrics"
	"spooftrack/internal/topo"
)

// testAttribution builds a 3-configuration binary-split matrix over 8
// sources and 2 links: config c sends source k to link (k>>c)&1 ... in
// fact to bit c of k, so the three configs together give every source a
// unique signature (all singletons).
func testAttribution() Attribution {
	const nSources, nConfigs = 8, 3
	catchments := make([][]bgp.LinkID, nConfigs)
	for c := 0; c < nConfigs; c++ {
		row := make([]bgp.LinkID, nSources)
		for k := 0; k < nSources; k++ {
			row[k] = bgp.LinkID((k >> c) & 1)
		}
		catchments[c] = row
	}
	asns := make([]topo.ASN, nSources)
	for k := range asns {
		asns[k] = topo.ASN(65000 + k)
	}
	return Attribution{Catchments: catchments, SourceASNs: asns, NumLinks: 2}
}

// TestClosedLoop drives the pipeline with synthetic events from one
// attacking source and checks the loop reconfigures online until the
// attacker is isolated.
func TestClosedLoop(t *testing.T) {
	attr := testAttribution()
	const attacker = 5
	victim := netip.MustParseAddr("192.0.2.66")

	var current atomic.Int32
	// Settle covers the window where the generator still stamps events
	// under the previous configuration — the loopback analogue of BGP
	// convergence delay after a reconfiguration.
	p, err := New(attr, Config{
		Workers:         4,
		FlushInterval:   2 * time.Millisecond,
		EvalInterval:    10 * time.Millisecond,
		MinRoundPackets: 100,
		Settle:          3 * time.Millisecond,
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			current.Store(int32(cfgIdx))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Traffic generator: the attacker's packets enter on whatever link
	// its catchment maps to under the currently deployed configuration.
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
			link := uint8(attr.Catchments[cfg][attacker])
			p.Ingest(amp.Event{
				Time:        time.Now(),
				IngressLink: link,
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

	cands := p.Candidates()
	if len(cands) != 1 || cands[0] != attacker {
		t.Fatalf("candidates = %v, want [%d]", cands, attacker)
	}
	deployed := p.Deployed()
	if len(deployed) < 2 {
		t.Fatalf("expected at least one online reconfiguration, deployed = %v", deployed)
	}
	if n := p.eval.Rounds(); n < 2 {
		t.Fatalf("expected at least 2 rounds, got %d", n)
	}
	// The clusters after the first round alone, refolded from the
	// evaluator's own transcript.
	first, err := RestoreEvaluator(attr, EvalParams{}, EvalSnapshot{
		Current:  attr.InitialConfig,
		Deployed: deployed[:1],
		Rounds:   p.eval.rounds[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if last := p.eval.NumClusters(); last <= first.NumClusters() {
		t.Fatalf("clusters did not shrink: %d after the first round, %d after the last", first.NumClusters(), last)
	}
	if !p.eval.Converged() {
		t.Fatal("Converged reported true but the evaluator has not converged")
	}
	rep, err := p.eval.Evidence()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 1 || rep.Candidates[0].ASN != attr.SourceASNs[attacker] {
		t.Fatalf("evidence candidates = %+v", rep.Candidates)
	}
}

// TestLoopbackIntegration runs the acceptance path end-to-end over real
// UDP: attacker -> border -> honeypot tap -> pipeline -> online
// reconfiguration via border.SetCatchments.
func TestLoopbackIntegration(t *testing.T) {
	attr := testAttribution()
	const attacker = 3
	attackerASN := uint32(attr.SourceASNs[attacker])

	hp, err := amp.NewHoneypot("127.0.0.1:0", amp.DefaultHoneypotConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	border, err := amp.NewBorder("127.0.0.1:0", hp.Addr().(*net.UDPAddr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer border.Close()

	p, err := New(attr, Config{
		Workers:         2,
		FlushInterval:   2 * time.Millisecond,
		EvalInterval:    10 * time.Millisecond,
		MinRoundPackets: 60,
		Settle:          2 * time.Millisecond,
		Deploy: func(cfgIdx int, table map[uint32]uint8) {
			border.SetCatchments(table)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hp.SetTap(func(ev amp.Event) { p.Ingest(ev) })

	attack, err := amp.NewAttacker(attackerASN, netip.MustParseAddr("192.0.2.9"))
	if err != nil {
		t.Fatal(err)
	}
	defer attack.Close()

	deadline := time.Now().Add(15 * time.Second)
	for !p.Converged() && time.Now().Before(deadline) {
		if _, err := attack.Flood(border.Addr(), 40, 8); err != nil {
			t.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond)
	}

	// Graceful shutdown: stop the producer side first, then drain.
	hp.SetTap(nil)
	p.Close()

	if !p.Converged() {
		t.Fatalf("did not converge; deployed %v", p.Deployed())
	}
	cands := p.Candidates()
	if len(cands) != 1 || cands[0] != attacker {
		t.Fatalf("candidates = %v, want [%d]", cands, attacker)
	}
	if len(p.Deployed()) < 2 {
		t.Fatalf("no online configuration change: %v", p.Deployed())
	}
}

// TestBackpressureNoLoss asserts the intake never drops: with eight
// producers on two counter shards and heavy lock contention from a
// poller that sums every counter shard on each read, every ingested
// event must still be accounted after Close.
func TestBackpressureNoLoss(t *testing.T) {
	attr := testAttribution()
	reg := metrics.NewRegistry()
	p, err := New(attr, Config{
		Workers:         2,
		FlushInterval:   time.Millisecond,
		EvalInterval:    time.Millisecond,
		MinRoundPackets: 1 << 40, // never reconfigure mid-test
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Hammer the shared state so merges contend with producers.
	pollStop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-pollStop:
				return
			default:
				p.TotalEvents()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const producers, perProducer = 8, 2000
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			victim := netip.AddrFrom4([4]byte{203, 0, 113, byte(g)})
			for i := 0; i < perProducer; i++ {
				ok := p.Ingest(amp.Event{
					Time:        time.Now(),
					IngressLink: uint8(i % attr.NumLinks),
					SpoofedSrc:  victim,
					WireLen:     24,
				})
				if !ok {
					rejected.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(pollStop)
	pollWG.Wait()
	p.Close()

	if rejected.Load() != 0 {
		t.Fatalf("%d events rejected while open", rejected.Load())
	}
	const want = producers * perProducer
	if got := p.TotalEvents(); got != want {
		t.Fatalf("event loss: accounted %d of %d", got, want)
	}
	if got := reg.Counter("stream_events_total").Value(); got != want {
		t.Fatalf("metrics counter %d, want %d", got, want)
	}
	// Double Close must be a no-op, and Ingest after Close must reject.
	p.Close()
	if p.Ingest(amp.Event{SpoofedSrc: netip.MustParseAddr("203.0.113.99")}) {
		t.Fatal("Ingest accepted an event after Close")
	}
}

// TestNewValidation covers constructor error paths.
func TestNewValidation(t *testing.T) {
	good := testAttribution()
	cases := []struct {
		name string
		mut  func(a Attribution) Attribution
	}{
		{"no configs", func(a Attribution) Attribution { a.Catchments = nil; return a }},
		{"asn mismatch", func(a Attribution) Attribution { a.SourceASNs = a.SourceASNs[:3]; return a }},
		{"no links", func(a Attribution) Attribution { a.NumLinks = 0; return a }},
		{"more links than a LinkID holds", func(a Attribution) Attribution { a.NumLinks = bgp.MaxLinks + 1; return a }},
		{"bad initial", func(a Attribution) Attribution { a.InitialConfig = 99; return a }},
		{"ragged rows", func(a Attribution) Attribution {
			a.Catchments = append([][]bgp.LinkID{}, a.Catchments...)
			a.Catchments[1] = a.Catchments[1][:2]
			return a
		}},
	}
	for _, tc := range cases {
		if _, err := New(tc.mut(good), Config{}); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}
