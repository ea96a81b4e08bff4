package shard

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spooftrack/internal/fault"
	"spooftrack/internal/stream"
)

// TestRingDistribution: every member owns a share of the keyspace, the
// mapping is deterministic, and removing a member only moves the keys
// it owned.
func TestRingDistribution(t *testing.T) {
	ids := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r := NewRing(ids)
	owned := make(map[string]int)
	before := make(map[uint32]string)
	for as := uint32(64000); as < 66000; as++ {
		o := r.Owner(as)
		owned[o]++
		before[as] = o
	}
	for _, id := range ids {
		if owned[id] == 0 {
			t.Errorf("%s owns no keys: %v", id, owned)
		}
	}
	r2 := NewRing(ids)
	for as, o := range before {
		if r2.Owner(as) != o {
			t.Fatalf("ring is not deterministic at AS %d", as)
		}
	}
	without := r.Without("shard-2")
	if len(without.ids) != 3 {
		t.Fatalf("Without left %d members", len(without.ids))
	}
	for as, o := range before {
		no := without.Owner(as)
		if o != "shard-2" && no != o {
			t.Errorf("AS %d moved from %s to %s though its owner survived", as, o, no)
		}
		if o == "shard-2" && no == "shard-2" {
			t.Errorf("AS %d still owned by the removed shard", as)
		}
	}
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
	var cfg ControllerConfig
	cfg.setDefaults()
	rp := cfg.rpcRetry()
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

// TestNodeTermFencing: a node that has seen term T rejects every RPC at
// a lower term — the deposed-controller fence.
func TestNodeTermFencing(t *testing.T) {
	n, err := NewNode(NodeConfig{ID: "s0", Attr: chaosAttr(), Pipe: stream.Config{Workers: 1, BatchSize: 1}})
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
	n.Crash()
	if _, err := n.HandleCollect(CollectRequest{Term: 9}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("collect on crashed node: err=%v, want ErrUnavailable", err)
	}
}

// TestLocalTransportIsolation: an isolated node fails with
// ErrPartitioned until the isolation lifts.
func TestLocalTransportIsolation(t *testing.T) {
	tr := NewLocalTransport(nil)
	n, err := NewNode(NodeConfig{ID: "s0", Attr: chaosAttr(), Pipe: stream.Config{Workers: 1, BatchSize: 1}})
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
		n, err := NewNode(NodeConfig{ID: id, Attr: attr, Pipe: stream.Config{Workers: 1, BatchSize: 1, FlushInterval: time.Millisecond}})
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
		RetryAttempts:   3,
		Sleep:           func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.TryLead(); err != nil {
		t.Fatal(err)
	}
	cfg := ct.Status().CurrentConfig
	ring := ct.Ring()
	for _, a := range chaosAttackers {
		for i := 0; i < a.pkts; i++ {
			ev := chaosEvent(attr, a.src, cfg)
			nodes[ring.Owner(ev.TrueSrcAS)].Ingest(ev)
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
