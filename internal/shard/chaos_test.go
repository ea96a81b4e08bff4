package shard

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/fault"
	"spooftrack/internal/provenance"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
)

// chaosAttr builds a 16-source / 4-config / 2-link attribution matrix
// where configuration c splits sources by bit c — enough structure for
// the greedy loop to need several reconfigurations.
func chaosAttr() stream.Attribution {
	const nSources, nConfigs = 16, 4
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
	return stream.Attribution{Catchments: catchments, SourceASNs: asns, NumLinks: 2}
}

// chaosAttackers is the fixed traffic mix every campaign sends each
// round: (source position, packets per round).
var chaosAttackers = []struct {
	src  int
	pkts int
}{{5, 30}, {11, 20}, {2, 10}}

func chaosEvent(attr stream.Attribution, src, cfg int) amp.Event {
	return amp.Event{
		Time:        time.Now(),
		IngressLink: uint8(attr.Catchments[cfg][src]),
		TrueSrcAS:   uint32(attr.SourceASNs[src]),
		SpoofedSrc:  netip.MustParseAddr("192.0.2.66"),
		WireLen:     64,
	}
}

const chaosRounds = 10

// runBaseline is the single-node reference: the same traffic and the
// same injector drop schedule folded directly through stream.Evaluator
// — the code a single-node pipeline runs. Skipped (empty) rounds mirror
// the controller's gate.
func runBaseline(prof fault.Profile, seed uint64, rounds int, scored bool) *stream.Evaluator {
	attr := chaosAttr()
	inj := fault.New(prof, seed, attr.NumLinks)
	eval := stream.NewEvaluator(attr, stream.EvalParams{})
	for r := 0; r < rounds; r++ {
		pkts := make([]int64, attr.NumLinks)
		total := int64(0)
		cfg := eval.Current()
		for _, a := range chaosAttackers {
			for i := 0; i < a.pkts; i++ {
				if inj.DropEvent() {
					continue
				}
				pkts[attr.Catchments[cfg][a.src]]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		eval.Step(pkts, r == rounds-1, nil, nil, scored)
	}
	return eval
}

// runCluster drives a sharded campaign: per round, route the traffic
// mix through the live ring, quiesce, optionally run the hook (kills,
// isolation), then step the controller. Returns the cluster for final
// assertions; the caller closes it.
func runCluster(t *testing.T, prof fault.Profile, seed uint64, shards, rounds int,
	cfgHook func(*ClusterConfig), roundHook func(int, *Cluster)) *Cluster {
	t.Helper()
	attr := chaosAttr()
	cc := ClusterConfig{
		Shards:          shards,
		Attr:            attr,
		MinRoundPackets: 1,
		Pipe: stream.Config{
			Workers:       2,
			BatchSize:     1,
			FlushInterval: time.Millisecond,
		},
		Injector: fault.New(prof, seed, attr.NumLinks),
	}
	if cfgHook != nil {
		cfgHook(&cc)
		attr = cc.Attr
	}
	cl, err := NewCluster(cc)
	if err != nil {
		t.Fatalf("NewCluster(%d shards): %v", shards, err)
	}
	// A generous budget: transient partitions at netsplit's rate
	// exhaust 20 attempts with probability ~0.35^20.
	cl.SetRetryAttempts(20)
	for r := 0; r < rounds; r++ {
		cfg := cl.Controller().Status().CurrentConfig
		for _, a := range chaosAttackers {
			for i := 0; i < a.pkts; i++ {
				cl.Ingest(chaosEvent(attr, a.src, cfg))
			}
		}
		if err := cl.Quiesce(10 * time.Second); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if roundHook != nil {
			roundHook(r, cl)
		}
		if _, err := cl.Step(r == rounds-1); err != nil {
			t.Fatalf("round %d: Step: %v", r, err)
		}
	}
	return cl
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertByteIdentical checks the full localization state — deployment
// sequence (hence catchment tables), candidate set, cluster
// assignments, convergence — matches the reference evaluator.
func assertByteIdentical(t *testing.T, label string, want *stream.Evaluator, got *Controller) {
	t.Helper()
	ge := got.Evaluator()
	if !eqInts(want.Deployed(), ge.Deployed()) {
		t.Errorf("%s: deployed configs %v, want %v", label, ge.Deployed(), want.Deployed())
	}
	if !eqInts(want.Candidates(), ge.Candidates()) {
		t.Errorf("%s: candidates %v, want %v", label, ge.Candidates(), want.Candidates())
	}
	wa, ga := want.Assignments(), ge.Assignments()
	if len(wa) != len(ga) {
		t.Fatalf("%s: assignment lengths %d vs %d", label, len(ga), len(wa))
	}
	for i := range wa {
		if wa[i] != ga[i] {
			t.Errorf("%s: source %d assigned cluster %d, want %d", label, i, ga[i], wa[i])
		}
	}
	if want.Converged() != ge.Converged() {
		t.Errorf("%s: converged %v, want %v", label, ge.Converged(), want.Converged())
	}
	if want.Rounds() != ge.Rounds() {
		t.Errorf("%s: folded %d rounds, want %d", label, ge.Rounds(), want.Rounds())
	}
}

// TestChaosByteIdentical is the core robustness matrix: under every
// fault profile (including the partition/split-brain netsplit profile),
// at shard counts 1, 4, and 8, the sharded cluster's localization must
// be byte-identical to the single-node fold — transient faults are
// healed by retries and re-elections, never absorbed as data loss.
func TestChaosByteIdentical(t *testing.T) {
	profiles := append([]fault.Profile{{Name: "clean"}}, fault.Profiles()...)
	const seed = 0xC0FFEE
	for _, prof := range profiles {
		want := runBaseline(prof, seed, chaosRounds, false)
		for _, shards := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/%d-shards", prof.Name, shards), func(t *testing.T) {
				cl := runCluster(t, prof, seed, shards, chaosRounds, nil, nil)
				defer cl.Close()
				assertByteIdentical(t, prof.Name, want, cl.Controller())
				if cl.Controller().Degraded() {
					t.Error("transient faults must not latch the degraded flag")
				}
			})
		}
	}
}

// TestControllerFailoverMidCampaign kills the active controller halfway
// through: the standby must win the expired lease at a higher term,
// recover the evaluator from the shards' snapshots, and finish the
// campaign byte-identically — with the whole story (elect, recover) in
// the ledger, and the ledger still replayable.
func TestControllerFailoverMidCampaign(t *testing.T) {
	const seed = 7
	led := provenance.New(provenance.Options{})
	want := runBaseline(fault.Profile{Name: "clean"}, seed, chaosRounds, true)
	var killed string
	cl := runCluster(t, fault.Profile{Name: "clean"}, seed, 4, chaosRounds,
		func(cc *ClusterConfig) { cc.Pipe.Ledger = led },
		func(r int, c *Cluster) {
			if r == chaosRounds/2 {
				killed = c.KillController()
			}
		})
	defer cl.Close()
	if killed == "" {
		t.Fatal("no controller was killed")
	}
	ct := cl.Controller()
	if got := ct.Status().Leader; got == killed {
		t.Fatalf("leader is still %s after its kill", got)
	}
	if ct.Term() < 2 {
		t.Fatalf("failover did not raise the term: %d", ct.Term())
	}
	assertByteIdentical(t, "failover", want, ct)

	var elects, recovers int
	for _, ev := range led.Export().Events {
		if ev.Failover == nil {
			continue
		}
		switch ev.Failover.Action {
		case "elect":
			elects++
		case "recover":
			recovers++
		}
	}
	if elects < 2 || recovers < 1 {
		t.Errorf("ledger failover events: %d elects, %d recovers; want >=2 and >=1", elects, recovers)
	}
	rr, err := provenance.Replay(led.Export())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.Reproduced {
		t.Fatalf("ledger did not replay byte-for-byte: %v", rr.Mismatches)
	}
	if rr.Rounds != want.Rounds() {
		t.Errorf("replay folded %d rounds, want %d", rr.Rounds, want.Rounds())
	}
}

// assertCoarsening checks the degraded run's partition is a coarsening
// of the fault-free one: sources the baseline keeps together are still
// together — localization lost precision, never correctness.
func assertCoarsening(t *testing.T, base, degraded []int32) {
	t.Helper()
	if len(base) != len(degraded) {
		t.Fatalf("assignment lengths %d vs %d", len(degraded), len(base))
	}
	for i := range base {
		for j := i + 1; j < len(base); j++ {
			if base[i] == base[j] && degraded[i] != degraded[j] {
				t.Fatalf("sources %d and %d share a cluster fault-free but were split degraded — not a coarsening", i, j)
			}
		}
	}
}

// runDegraded drives a campaign with a permanent failure injected by
// fail(), then asserts the graceful-coarsening contract: explicit
// eviction and degraded latch, frozen reconfiguration (the deployment
// sequence is a prefix of the fault-free run), a coarser — never wrong
// — partition, and the loss written to the ledger.
func runDegraded(t *testing.T, fail func(*Cluster), wantState string) {
	const seed = 21
	led := provenance.New(provenance.Options{})
	want := runBaseline(fault.Profile{Name: "clean"}, seed, chaosRounds, true)
	var discarded, deferred bool
	deploysAtDiscard := -1
	attr := chaosAttr()
	cl, err := NewCluster(ClusterConfig{
		Shards:          4,
		Attr:            attr,
		MinRoundPackets: 1,
		Pipe:            stream.Config{Workers: 2, BatchSize: 1, FlushInterval: time.Millisecond, Ledger: led},
		Injector:        fault.New(fault.Profile{Name: "clean"}, seed, attr.NumLinks),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryAttempts(3)
	cl.SetEvictAfter(2)
	for r := 0; r < chaosRounds; r++ {
		cfg := cl.Controller().Status().CurrentConfig
		for _, a := range chaosAttackers {
			for i := 0; i < a.pkts; i++ {
				cl.Ingest(chaosEvent(attr, a.src, cfg))
			}
		}
		if err := cl.Quiesce(10 * time.Second); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		// Fail early, while the greedy loop still has configurations to
		// deploy — the freeze must visibly cut the deployment sequence
		// short.
		if r == 2 {
			fail(cl)
		}
		res, err := cl.Step(r == chaosRounds-1)
		if err != nil {
			t.Fatalf("round %d: Step: %v", r, err)
		}
		deferred = deferred || res.Deferred
		if res.Discarded && !discarded {
			discarded = true
			deploysAtDiscard = len(cl.Controller().Evaluator().Deployed())
		}
	}
	ct := cl.Controller()
	if !deferred || !discarded {
		t.Fatalf("permanent loss must surface as deferred-then-discarded rounds (deferred=%v discarded=%v)", deferred, discarded)
	}
	if !ct.Degraded() {
		t.Fatal("permanent shard loss must latch the degraded flag")
	}
	st := ct.Status()
	lost := ""
	for _, m := range st.Members {
		if m.State == wantState {
			lost = m.ID
		}
	}
	if lost == "" {
		t.Fatalf("no member in state %q: %+v", wantState, st.Members)
	}
	// Frozen reconfiguration: nothing deploys after the discard, and
	// what did deploy is a prefix of the fault-free sequence — the
	// refinement-prefix property behind provable coarsening.
	wd, gd := want.Deployed(), ct.Evaluator().Deployed()
	if len(gd) != deploysAtDiscard {
		t.Errorf("deployments grew after the discard: %d then, %d now", deploysAtDiscard, len(gd))
	}
	if len(gd) > len(wd) || !eqInts(wd[:len(gd)], gd) {
		t.Errorf("degraded deployments %v are not a prefix of fault-free %v", gd, wd)
	}
	if len(gd) >= len(wd) {
		t.Errorf("the freeze should have cut deployments short: degraded %v vs fault-free %v", gd, wd)
	}
	assertCoarsening(t, want.Assignments(), ct.Evaluator().Assignments())
	var evicts, degrades int
	for _, ev := range led.Export().Events {
		if ev.Membership != nil && ev.Membership.Action == "evict" && ev.Membership.Node == lost {
			evicts++
		}
		if ev.Degrade != nil {
			degrades++
		}
	}
	if evicts == 0 || degrades == 0 {
		t.Errorf("ledger must record the loss: %d evict events, %d degrade events", evicts, degrades)
	}
}

// TestPermanentShardCrashCoarsens: a shard dies for good mid-campaign.
func TestPermanentShardCrashCoarsens(t *testing.T) {
	runDegraded(t, func(c *Cluster) { c.KillShard("shard-2") }, "evicted")
}

// TestPermanentNetsplitCoarsens: a shard is partitioned away for good —
// the same eviction path via the transport instead of the node.
func TestPermanentNetsplitCoarsens(t *testing.T) {
	runDegraded(t, func(c *Cluster) { c.Isolate("shard-1", true) }, "evicted")
}

// TestDrainByteIdentical: a shard that breaches its readiness gate is
// drained — it is still reachable, its last round is still collected,
// so the campaign stays byte-identical to the fault-free single-node
// run while the membership shrinks.
func TestDrainByteIdentical(t *testing.T) {
	const seed = 33
	want := runBaseline(fault.Profile{Name: "clean"}, seed, chaosRounds, false)
	var sick atomic.Bool
	cl := runCluster(t, fault.Profile{Name: "clean"}, seed, 4, chaosRounds, nil,
		func(r int, c *Cluster) {
			switch r {
			case 0: // before the first Step
				c.SetReady("shard-3", func() bool { return !sick.Load() })
			case 3:
				sick.Store(true)
			}
		})
	defer cl.Close()
	ct := cl.Controller()
	st := ct.Status()
	found := false
	for _, m := range st.Members {
		if m.ID == "shard-3" && m.State == "drained" {
			found = true
		}
	}
	if !found {
		t.Fatalf("shard-3 was not drained: %+v", st.Members)
	}
	if ct.Degraded() {
		t.Error("draining loses nothing and must not latch the degraded flag")
	}
	assertByteIdentical(t, "drain", want, ct)
}
