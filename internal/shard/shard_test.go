package shard

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/fault"
	"spooftrack/internal/stream"
)

// TestRingDistribution: every member owns a share of the keyspace and
// the mapping is deterministic.
func TestRingDistribution(t *testing.T) {
	ids := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r := &Ring{ids: ids}
	owned := make(map[string]int)
	before := make(map[uint32]string)
	for key := uint32(64000); key < 66000; key++ {
		o := r.Owner(key)
		owned[o]++
		before[key] = o
	}
	for _, id := range ids {
		if owned[id] == 0 {
			t.Errorf("%s owns no keys: %v", id, owned)
		}
	}
	r2 := &Ring{ids: append([]string(nil), ids...)}
	for key, o := range before {
		if r2.Owner(key) != o {
			t.Fatalf("ring is not deterministic at key %d", key)
		}
	}
}

// TestHoneypotEventsSpreadAcrossShards: the honeypot tap never learns
// an event's true source AS and leaves it 0, so a route keyed on it
// would put every event on one shard. Several victims over every link
// must reach more than one shard's intake.
func TestHoneypotEventsSpreadAcrossShards(t *testing.T) {
	attr := chaosAttr()
	cl, err := NewCluster(ClusterConfig{
		Shards: 4,
		Attr:   attr,
		Pipe:   stream.Config{Workers: 1, FlushInterval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for v := 0; v < 8; v++ {
		for l := 0; l < attr.NumLinks; l++ {
			cl.Ingest(amp.Event{
				Time:        time.Now(),
				IngressLink: uint8(l),
				SpoofedSrc:  netip.AddrFrom4([4]byte{198, 51, 100, byte(v)}),
				WireLen:     64,
			})
		}
	}
	var counts []int64
	busy := 0
	for _, id := range cl.Nodes() {
		n := cl.nodes[id].Intake().TotalEvents()
		counts = append(counts, n)
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("honeypot events reached %d of 4 shards: %v", busy, counts)
	}
}

// TestRoutingIndependence: the controller sums per-link counters, so
// which shard counts an event cannot change a decision. The same rounds
// fed to the nodes round-robin by hand must reach the deploys and
// evaluator state the cluster's own route and a bare evaluator reach.
func TestRoutingIndependence(t *testing.T) {
	const seed = 5
	clean := fault.Profile{Name: "clean"}
	want := runBaseline(clean, seed, chaosRounds, false)
	cl := runCluster(t, clean, seed, 4, chaosRounds, nil, nil)
	defer cl.Close()

	attr := chaosAttr()
	tr := NewLocalTransport(nil)
	var nodes []*Node
	for _, id := range cl.Nodes() {
		n, err := NewNode(NodeConfig{ID: id, Attr: attr, Pipe: stream.Config{Workers: 2, FlushInterval: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		tr.Register(n)
		nodes = append(nodes, n)
	}
	ct, err := NewController(ControllerConfig{
		ID:              "ctrl-0",
		Attr:            attr,
		MinRoundPackets: 1,
		Members:         cl.Nodes(),
		Transport:       tr,
		Lease:           NewMemLease(),
		Sleep:           func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.TryLead(); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for r := 0; r < chaosRounds; r++ {
		cfg := ct.Status().CurrentConfig
		for _, a := range chaosAttackers {
			for i := 0; i < a.pkts; i++ {
				nodes[sent%len(nodes)].Ingest(chaosEvent(attr, a.src, cfg))
				sent++
			}
		}
		if _, err := ct.Step(r == chaosRounds-1); err != nil {
			t.Fatalf("round %d: Step: %v", r, err)
		}
	}
	for name, got := range map[string]*stream.Evaluator{
		"cluster route": cl.Controller().Evaluator(),
		"round-robin":   ct.Evaluator(),
	} {
		if !eqInts(got.Deployed(), want.Deployed()) {
			t.Errorf("%s: deployed %v, bare evaluator %v", name, got.Deployed(), want.Deployed())
		}
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Errorf("%s: evaluator snapshot differs from the bare evaluator's:\n%+v\nwant\n%+v", name, got.Snapshot(), want.Snapshot())
		}
	}
}

// TestUnroutableEventsCountAsDropped: an event no intake can count is
// counted in Dropped, not lost — offered to a closed owner, or offered
// after the only member was evicted.
func TestUnroutableEventsCountAsDropped(t *testing.T) {
	attr := chaosAttr()
	cl, err := NewCluster(ClusterConfig{
		Shards:          1,
		Attr:            attr,
		MinRoundPackets: 1,
		Pipe:            stream.Config{Workers: 1, FlushInterval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryAttempts(1)
	cl.SetEvictAfter(1)
	const n = 25
	offer := func(want int64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if cl.Ingest(chaosEvent(attr, 5, 0)) {
				t.Fatal("an event was counted with no live shard to count it")
			}
		}
		if got := cl.Dropped(); got != want {
			t.Fatalf("Dropped = %d, want %d", got, want)
		}
	}
	cl.KillShard("shard-0")
	offer(n)
	res, err := cl.Step(false)
	if err != nil {
		t.Fatal(err)
	}
	if st := cl.Controller().Status(); !res.Discarded || len(st.Members) != 1 || st.Members[0].State != "evicted" {
		t.Fatalf("the dead shard was not evicted: %+v, members %+v", res, st.Members)
	}
	offer(2 * n)
}

// TestMemLease: acquire, refused second acquire, renew, expiry, and the
// monotonic term across handovers.
func TestMemLease(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewMemLease()
	l.SetClock(func() time.Time { return now })
	lease, ok := l.Acquire("a", time.Second)
	if !ok || lease.Holder != "a" || lease.Term != 1 {
		t.Fatalf("first acquire: %+v ok=%v", lease, ok)
	}
	if _, ok := l.Acquire("b", time.Second); ok {
		t.Fatal("b acquired a live lease")
	}
	if !l.Renew("a", 1, time.Second) {
		t.Fatal("holder could not renew")
	}
	if l.Renew("a", 2, time.Second) {
		t.Fatal("renew accepted a wrong term")
	}
	now = now.Add(2 * time.Second)
	lease, ok = l.Acquire("b", time.Second)
	if !ok || lease.Holder != "b" || lease.Term != 2 {
		t.Fatalf("expired lease not taken over: %+v ok=%v", lease, ok)
	}
	l.Release("b", 2)
	lease, ok = l.Acquire("a", time.Second)
	if !ok || lease.Term != 3 {
		t.Fatalf("released lease not reacquired at a higher term: %+v ok=%v", lease, ok)
	}
}

// TestMemLeaseSplitBrain: with the split-brain fault at certainty, a
// renewal fails and expires the lease, so the next acquire wins at a
// higher term — the injected flap becomes a fenced re-election.
func TestMemLeaseSplitBrain(t *testing.T) {
	l := NewMemLease()
	l.SetInjector(fault.New(fault.Profile{PrSplitBrain: 1}, 1, 2))
	lease, ok := l.Acquire("a", time.Hour)
	if !ok {
		t.Fatal("acquire failed")
	}
	if l.Renew("a", lease.Term, time.Hour) {
		t.Fatal("renewal survived a certain split-brain fault")
	}
	next, ok := l.Acquire("b", time.Hour)
	if !ok || next.Term != lease.Term+1 {
		t.Fatalf("post-split-brain acquire: %+v ok=%v", next, ok)
	}
}

// TestFileLease: the on-disk lease store round-trips and excludes a
// second holder until expiry.
func TestFileLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease", "ctrl.lease")
	f := NewFileLease(path)
	if err := f.Dir(); err != nil {
		t.Fatal(err)
	}
	lease, ok := f.Acquire("a", time.Hour)
	if !ok || lease.Holder != "a" || lease.Term != 1 {
		t.Fatalf("acquire: %+v ok=%v", lease, ok)
	}
	if _, ok := f.Acquire("b", time.Hour); ok {
		t.Fatal("b acquired a live file lease")
	}
	if !f.Renew("a", 1, time.Hour) {
		t.Fatal("holder could not renew the file lease")
	}
	f.Release("a", 1)
	lease, ok = f.Acquire("b", time.Hour)
	if !ok || lease.Holder != "b" || lease.Term != 2 {
		t.Fatalf("takeover after release: %+v ok=%v", lease, ok)
	}
}

// TestFileLeaseUnreadableNeverLowersTerm: a lease file that exists but
// does not parse is refused, not read as a fresh lease, so no Acquire
// hands out a term below one already granted. A deleted file still
// restarts at term 1.
func TestFileLeaseUnreadableNeverLowersTerm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctrl.lease")
	f := NewFileLease(path)
	var lease Lease
	for i := 0; i < 4; i++ {
		var ok bool
		if lease, ok = f.Acquire("a", 0); !ok {
			t.Fatalf("acquire %d refused", i+1)
		}
	}
	if lease.Term != 4 {
		t.Fatalf("term %d after four acquisitions, want 4", lease.Term)
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, ok := f.Acquire("b", time.Hour); ok {
		t.Fatalf("acquired %+v over an unparsable lease file that held term 4", l)
	}
	if f.Renew("a", 4, time.Hour) {
		t.Fatal("renewed over an unparsable lease file")
	}
	f.Release("a", 4)
	if b, err := os.ReadFile(path); err != nil || string(b) != "{" {
		t.Fatalf("lease file now %q (%v), want it left as it was", b, err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if l, ok := f.Acquire("b", time.Hour); !ok || l.Term != 1 {
		t.Fatalf("acquire after the file was deleted: %+v ok=%v, want term 1", l, ok)
	}
}

// TestFileLeaseOneLeaderPerTerm: eight contenders, each with its own
// FileLease on one path as separate processes would hold them, race
// Acquire for a lease that expires the moment it is granted, so every
// attempt contends for a fresh term. No term may elect two leaders.
func TestFileLeaseOneLeaderPerTerm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctrl.lease")
	const contenders, attempts, minTerms = 8, 100, 200
	var (
		mu      sync.Mutex
		winners = make(map[uint64][]string)
		wg      sync.WaitGroup
	)
	for c := 0; c < contenders; c++ {
		f, holder := NewFileLease(path), fmt.Sprintf("c%d", c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				if l, ok := f.Acquire(holder, 0); ok {
					mu.Lock()
					winners[l.Term] = append(winners[l.Term], holder)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for term, hs := range winners {
		if len(hs) > 1 {
			t.Errorf("term %d elected %d leaders: %v", term, len(hs), hs)
		}
	}
	if len(winners) < minTerms {
		t.Errorf("only %d terms granted over %d attempts, want >= %d", len(winners), contenders*attempts, minTerms)
	}
}

// TestRetryPolicyBackoff: the controller's default schedule doubles
// from 1ms to its 100ms cap, the same at every site (no jitter).
func TestRetryPolicyBackoff(t *testing.T) {
	ct, err := NewController(ControllerConfig{ID: "c", Attr: chaosAttr(), Members: []string{"s0"},
		Transport: NewLocalTransport(nil), Lease: NewMemLease()})
	if err != nil {
		t.Fatal(err)
	}
	rp := ct.rpcRetry()
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		16 * time.Millisecond, 32 * time.Millisecond, 64 * time.Millisecond, 100 * time.Millisecond,
	}
	for i, w := range want {
		if got := rp.Backoff(i, i); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
	if rp.MaxAttempts != 8 {
		t.Errorf("default attempts %d, want 8", rp.MaxAttempts)
	}
	if Retryable(ErrStaleTerm) {
		t.Error("stale term must not be retryable")
	}
	if !Retryable(ErrPartitioned) || !Retryable(ErrUnavailable) {
		t.Error("partition and unavailability must be retryable")
	}
}

// TestControllerRejectsDuplicateMembers: a shard listed twice would be
// collected twice per round and its counters folded twice.
func TestControllerRejectsDuplicateMembers(t *testing.T) {
	_, err := NewController(ControllerConfig{ID: "c", Attr: chaosAttr(), Members: []string{"s0", "s1", "s0"},
		Transport: NewLocalTransport(nil), Lease: NewMemLease()})
	if err == nil || !strings.Contains(err.Error(), `member "s0" listed twice`) {
		t.Fatalf("NewController with s0 twice: %v, want an error naming s0", err)
	}
}

// TestNodeTermFencing: a node that has seen term T rejects every RPC at
// a lower term — the deposed-controller fence.
func TestNodeTermFencing(t *testing.T) {
	n, err := NewNode(NodeConfig{ID: "s0", Attr: chaosAttr(), Pipe: stream.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.HandleCollect(CollectRequest{Term: 3}); err != nil {
		t.Fatalf("collect at term 3: %v", err)
	}
	if _, err := n.HandleCollect(CollectRequest{Term: 2}); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("collect at stale term 2: err=%v, want ErrStaleTerm", err)
	}
	if _, err := n.HandleApply(EpochUpdate{Term: 1, Epoch: 1}); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("apply at stale term 1: err=%v, want ErrStaleTerm", err)
	}
	if _, err := n.HandleHello(HelloRequest{Term: 0}); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("hello at stale term 0: err=%v, want ErrStaleTerm", err)
	}
}

// TestKilledShardUnavailable: a killed shard answers no RPC through the
// transport, accepts no event, and does not hold up Quiesce.
func TestKilledShardUnavailable(t *testing.T) {
	attr := chaosAttr()
	cl, err := NewCluster(ClusterConfig{Shards: 2, Attr: attr, Pipe: stream.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.KillShard("shard-1")
	if _, err := cl.transport.Collect("shard-1", CollectRequest{Term: 9}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("collect on killed shard: err=%v, want ErrUnavailable", err)
	}
	if _, err := cl.transport.Apply("shard-1", EpochUpdate{Term: 9}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("apply on killed shard: err=%v, want ErrUnavailable", err)
	}
	if _, err := cl.transport.Hello("shard-1", HelloRequest{Term: 9}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("hello on killed shard: err=%v, want ErrUnavailable", err)
	}
	if _, err := cl.transport.Collect("shard-0", CollectRequest{Term: 9}); err != nil {
		t.Fatalf("collect on live shard: %v", err)
	}
	if cl.nodes["shard-1"].Ingest(chaosEvent(attr, 0, 0)) {
		t.Fatal("killed shard accepted an event")
	}
	if err := cl.Quiesce(time.Second); err != nil {
		t.Fatalf("quiesce with a killed shard: %v", err)
	}
}

// TestLocalTransportIsolation: an isolated node fails with
// ErrPartitioned until the isolation lifts.
func TestLocalTransportIsolation(t *testing.T) {
	tr := NewLocalTransport(nil)
	n, err := NewNode(NodeConfig{ID: "s0", Attr: chaosAttr(), Pipe: stream.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	tr.Register(n)
	if _, err := tr.Hello("s0", HelloRequest{Term: 1, Leader: "c"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := tr.Hello("missing", HelloRequest{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("unregistered node: err=%v, want ErrUnavailable", err)
	}
	tr.Isolate("s0", true)
	if _, err := tr.Collect("s0", CollectRequest{Term: 1}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("isolated collect: err=%v, want ErrPartitioned", err)
	}
	tr.Isolate("s0", false)
	if _, err := tr.Collect("s0", CollectRequest{Term: 1}); err != nil {
		t.Fatalf("collect after isolation lifted: %v", err)
	}
}

// TestHTTPTransportRoundTrip: a controller over the HTTP transport
// against httptest shard servers folds a round end-to-end, and term
// fencing surfaces as ErrStaleTerm through the 409 mapping.
func TestHTTPTransportRoundTrip(t *testing.T) {
	attr := chaosAttr()
	tr := NewHTTPTransport(2 * time.Second)
	nodes := make(map[string]*Node)
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("shard-%d", i)
		n, err := NewNode(NodeConfig{ID: id, Attr: attr, Pipe: stream.Config{Workers: 1, FlushInterval: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		srv := httptest.NewServer(NodeHandler(n))
		defer srv.Close()
		tr.Register(id, srv.URL)
		nodes[id] = n
	}
	ct, err := NewController(ControllerConfig{
		ID:              "ctrl-0",
		Attr:            attr,
		Eval:            stream.EvalParams{},
		MinRoundPackets: 1,
		Members:         []string{"shard-0", "shard-1"},
		Transport:       tr,
		Lease:           NewMemLease(),
		Sleep:           func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ct.SetRetryAttempts(3)
	if err := ct.TryLead(); err != nil {
		t.Fatal(err)
	}
	cfg := ct.Status().CurrentConfig
	ring := ct.Ring()
	for _, a := range chaosAttackers {
		for i := 0; i < a.pkts; i++ {
			ev := chaosEvent(attr, a.src, cfg)
			nodes[ring.Owner(ev.FlowKey())].Ingest(ev)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := int64(0)
		for _, n := range nodes {
			total += n.Intake().TotalEvents()
		}
		if total == 60 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("events not flushed: %d/60", total)
		}
		time.Sleep(time.Millisecond)
	}
	res, err := ct.Step(false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Folded || res.Epoch != 1 {
		t.Fatalf("step over HTTP: %+v", res)
	}
	// A deposed controller's term is rejected through the 409 mapping.
	if _, err := tr.Collect("shard-0", CollectRequest{Term: 0, Epoch: 1}); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("stale term over HTTP: err=%v, want ErrStaleTerm", err)
	}
}

// TestFinalStepBelowGateKeepsSources: Step(true) merges the shutdown
// round under the MinRoundPackets gate like any step. Sources 0 and 14
// share link 0 under configuration 0 and split under the one deployed
// next; a final round of 8 packets from source 0 alone must not
// eliminate source 14.
func TestFinalStepBelowGateKeepsSources(t *testing.T) {
	attr := chaosAttr()
	cl, err := NewCluster(ClusterConfig{
		Shards:          2,
		Attr:            attr,
		MinRoundPackets: 50,
		Pipe:            stream.Config{Workers: 1, FlushInterval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	send := func(src, n int) {
		cfg := cl.Controller().Status().CurrentConfig
		for range n {
			cl.Ingest(chaosEvent(attr, src, cfg))
		}
	}
	step := func(final bool) StepResult {
		t.Helper()
		if err := cl.Quiesce(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		res, err := cl.Step(final)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	send(0, 30)
	send(14, 30)
	if res := step(false); !res.Folded || res.Outcome.Deploy <= 0 {
		t.Fatalf("full round: %+v, want a fold that deploys a split of the even sources", res)
	}
	send(0, 8)
	if res := step(true); res.Folded {
		t.Fatalf("an 8-packet final round was folded: %+v", res)
	}
	got := cl.Controller().Evaluator().Candidates()
	for _, src := range []int{0, 14} {
		if !slices.Contains(got, src) {
			t.Fatalf("source %d eliminated by the final round: candidates %v", src, got)
		}
	}
}
