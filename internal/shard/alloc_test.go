//go:build !race

package shard

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

// TestStatusCostIndependentOfCandidates: Controller.Status counts the
// candidates without copying them, so answering it allocates as often,
// and as many bytes, with 1000 candidates as with 2. Behind !race, whose
// instrumentation allocates on its own.
func TestStatusCostIndependentOfCandidates(t *testing.T) {
	const runs = 100
	cost := func(sources int) (allocs float64, bytes uint64) {
		attr := stream.Attribution{
			Catchments: [][]bgp.LinkID{make([]bgp.LinkID, sources)},
			SourceASNs: make([]topo.ASN, sources),
			NumLinks:   1,
		}
		ct, err := NewController(ControllerConfig{ID: "c", Attr: attr, Members: []string{"s0"},
			Transport: NewLocalTransport(nil), Lease: NewMemLease()})
		if err != nil {
			t.Fatal(err)
		}
		if got := ct.Status().Candidates; got != sources {
			t.Fatalf("%d candidates before any fold, want every one of %d sources", got, sources)
		}
		allocs = testing.AllocsPerRun(runs, func() { ct.Status() })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			ct.Status()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	fewAllocs, fewBytes := cost(2)
	manyAllocs, manyBytes := cost(1000)
	// 1000 candidates copied would be 8000 B a call.
	if manyAllocs != fewAllocs || manyBytes > fewBytes+512 {
		t.Fatalf("Status allocates %v times, %d B, with 1000 candidates and %v times, %d B, with 2",
			manyAllocs, manyBytes, fewAllocs, fewBytes)
	}
}

// TestStepAllocsIndependentOfRounds: a controller round allocates as
// often after 200 folded rounds as after 5: its broadcast shares the
// evaluator's append-only history and the live member list. Behind
// !race, whose instrumentation allocates on its own.
func TestStepAllocsIndependentOfRounds(t *testing.T) {
	attr := broadcastAttr()
	cl, err := NewCluster(ClusterConfig{Shards: 2, Attr: attr, MinRoundPackets: 1,
		Pipe: stream.Config{Workers: 2, Deploy: func(int, map[uint32]uint8) {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Step(false); err != nil { // elects a leader
		t.Fatal(err)
	}
	ct := cl.Controller()
	step := func() {
		ingestBots(cl, attr, ct.eval.Current())
		if res, err := ct.Step(false); err != nil || !res.Folded {
			t.Fatalf("step: %+v, %v", res, err)
		}
	}
	for ct.Evaluator().Rounds() < 5 {
		step()
	}
	early := testing.AllocsPerRun(20, step)
	for ct.Evaluator().Rounds() < 200 {
		step()
	}
	late := testing.AllocsPerRun(20, step)
	if early != late {
		t.Fatalf("a round allocates %v times after 5 folded rounds and %v after 200", early, late)
	}
}

// TestWarmHandleApplyAllocatesNothing: a node applying an update keeps
// it by value, so once its intake has made its catchment table an apply
// allocates nothing, however long the update's history.
func TestWarmHandleApplyAllocatesNothing(t *testing.T) {
	attr := broadcastAttr()
	n, err := NewNode(NodeConfig{ID: "s0", Attr: attr,
		Pipe: stream.Config{Workers: 2, Deploy: func(int, map[uint32]uint8) {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	eval := stream.NewEvaluator(attr, stream.EvalParams{})
	for r := 0; r < 10; r++ {
		eval.Step([]int64{30, 0, 12, 5}, false, nil, nil, false)
	}
	u := EpochUpdate{Term: 1, Members: []string{"s0"}, Snapshot: eval.Snapshot()}
	apply := func() {
		u.Epoch++
		u.Config = int(u.Epoch) % 2
		if _, err := n.HandleApply(u); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	apply()
	if got := testing.AllocsPerRun(100, apply); got != 0 {
		t.Fatalf("a warm HandleApply allocates %v times, want 0", got)
	}
}

// ingestBots offers the cluster one round of packets from every bot in
// broadcastBots, as the border sees them under configuration cfg.
func ingestBots(cl *Cluster, attr stream.Attribution, cfg int) {
	for _, b := range broadcastBots {
		l := attr.Catchments[cfg][b.src]
		if l == bgp.NoLink {
			continue
		}
		for i := 0; i < b.pkts; i++ {
			cl.Ingest(amp.Event{
				Time:        time.Now(),
				IngressLink: uint8(l),
				SpoofedSrc:  netip.AddrFrom4([4]byte{198, 51, 100, byte(b.src)}),
				WireLen:     64,
			})
		}
	}
}
