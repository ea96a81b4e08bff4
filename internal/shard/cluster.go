package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/fault"
	"spooftrack/internal/metrics"
	"spooftrack/internal/provenance"
	"spooftrack/internal/stream"
)

// ClusterConfig builds an in-process sharded-ingest cluster: N intake
// nodes, a LocalTransport network (with injected faults), a MemLease
// election substrate on a controllable clock, and 1+Standbys
// controllers competing for it. It is both the chaos harness and the
// single-process deployment mode of cmd/spooftrackd.
type ClusterConfig struct {
	// Shards is the node count (>= 1).
	Shards int
	// Attr / Eval / MinRoundPackets are the shared attribution contract —
	// identical to what a single-node pipeline would run.
	Attr            stream.Attribution
	Eval            stream.EvalParams
	MinRoundPackets int64
	// Pipe is the per-node intake configuration (see NodeConfig.Pipe);
	// only the controller decides and writes provenance.
	Pipe stream.Config
	// Standbys is how many extra controllers wait on the lease (default 1).
	Standbys int
	// Injector drives event drops, RPC partitions, shard crashes, and
	// split-brain lease flaps. Nil = fault-free.
	Injector *fault.Injector
	// Retry / EvictAfter / DrainAfter / LeaseTTL pass through to the
	// controllers.
	Retry      RetryPolicy
	EvictAfter int
	DrainAfter int
	LeaseTTL   time.Duration
	// Ready supplies a per-shard readiness gate (nil = always ready).
	Ready func(id string) func() bool
	// Blocked / Remeasure pass through to the controllers (quarantine
	// mask, probe-conflict re-measurement hints).
	Blocked   func() []bool
	Remeasure func() []int
	// Ledger / Metrics wire the active controller's provenance and
	// instrumentation.
	Ledger  *provenance.Ledger
	Metrics *metrics.Registry
}

// Cluster wires nodes, transport, lease, and controllers together and
// drives them in rounds: Ingest routes events through the live ring,
// Quiesce drains the intakes, Step runs one controller round
// (electing a leader as needed), and the Kill*/Isolate hooks inject the
// permanent failures the chaos suite asserts against.
type Cluster struct {
	cfg       ClusterConfig
	nodes     map[string]*Node
	order     []string
	transport *LocalTransport
	lease     *MemLease
	ctrls     []*Controller
	dead      []bool

	clockBase time.Time
	clockOff  atomic.Int64

	// Ingest fast path: an immutable route snapshot (ring plus node and
	// counter slices in ring-member order, refreshed after every
	// controller step, when membership can change) keeps the sharded
	// ingest path lock-free and string-free — within a few percent of a
	// bare Intake.Ingest.
	route   atomic.Pointer[ingestRoute]
	routed  map[string]*atomic.Int64
	dropped atomic.Int64

	mu     sync.Mutex
	active int
}

// ingestRoute is one immutable routing snapshot: nodes and routed
// counters are indexed by Ring.OwnerIndex.
type ingestRoute struct {
	ring   *Ring
	nodes  []*Node
	routed []*atomic.Int64
}

// NewCluster builds and starts the cluster (nodes running, no leader
// elected yet — the first Step elects one).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("shard: cluster needs at least one shard")
	}
	if cfg.Standbys < 0 {
		cfg.Standbys = 0
	}
	if cfg.Standbys == 0 {
		cfg.Standbys = 1
	}
	c := &Cluster{
		cfg:       cfg,
		nodes:     make(map[string]*Node),
		transport: NewLocalTransport(cfg.Injector),
		lease:     NewMemLease(),
		routed:    make(map[string]*atomic.Int64),
		clockBase: time.Unix(1700000000, 0),
	}
	c.lease.SetClock(func() time.Time { return c.clockBase.Add(time.Duration(c.clockOff.Load())) })
	if cfg.Injector != nil {
		c.lease.SetInjector(cfg.Injector)
	}
	for i := 0; i < cfg.Shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		var ready func() bool
		if cfg.Ready != nil {
			ready = cfg.Ready(id)
		}
		n, err := NewNode(NodeConfig{ID: id, Attr: cfg.Attr, Pipe: cfg.Pipe, Ready: ready})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes[id] = n
		c.order = append(c.order, id)
		c.routed[id] = &atomic.Int64{}
		c.transport.Register(n)
	}
	for i := 0; i < 1+cfg.Standbys; i++ {
		ct, err := NewController(ControllerConfig{
			ID:              fmt.Sprintf("ctrl-%d", i),
			Attr:            cfg.Attr,
			Eval:            cfg.Eval,
			MinRoundPackets: cfg.MinRoundPackets,
			Members:         c.order,
			Transport:       c.transport,
			Lease:           c.lease,
			LeaseTTL:        cfg.LeaseTTL,
			Retry:           cfg.Retry,
			EvictAfter:      cfg.EvictAfter,
			DrainAfter:      cfg.DrainAfter,
			Blocked:         cfg.Blocked,
			Remeasure:       cfg.Remeasure,
			Ledger:          cfg.Ledger,
			Metrics:         cfg.Metrics,
			Sleep:           func(time.Duration) {}, // in-process: no real backoff sleeps
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.ctrls = append(c.ctrls, ct)
		c.dead = append(c.dead, false)
	}
	c.setRoute(c.ctrls[0].Ring())
	return c, nil
}

// setRoute publishes a new routing snapshot for the given ring.
func (c *Cluster) setRoute(ring *Ring) {
	rt := &ingestRoute{ring: ring}
	for _, id := range ring.Members() {
		rt.nodes = append(rt.nodes, c.nodes[id])
		rt.routed = append(rt.routed, c.routed[id])
	}
	c.route.Store(rt)
}

// Controller returns the currently active (or most recently active)
// controller.
func (c *Cluster) Controller() *Controller {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrls[c.active]
}

// Nodes returns the shard ids in order.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.order...) }

// Ingest routes one event: the injector's drop roll first (so the drop
// schedule is identical at every shard count), then consistent-hash by
// true source AS through the live ring. The path is lock-free.
func (c *Cluster) Ingest(ev amp.Event) bool {
	if c.cfg.Injector != nil && c.cfg.Injector.DropEvent() {
		c.dropped.Add(1)
		return false
	}
	rt := c.route.Load()
	i := rt.ring.OwnerIndex(ev.TrueSrcAS)
	if i < 0 {
		return false
	}
	n := rt.nodes[i]
	if n == nil || !n.Ingest(ev) {
		return false
	}
	rt.routed[i].Add(1)
	return true
}

// Quiesce waits until every live shard has flushed all routed events
// into its shared round state, so a following Step collects a complete,
// deterministic round. Crashed shards are skipped (their uncollected
// events are the explicit loss the eviction path accounts).
func (c *Cluster) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lagging := ""
		for _, id := range c.order {
			n := c.nodes[id]
			if n.Crashed() {
				continue
			}
			want := c.routed[id].Load()
			if n.Intake().TotalEvents() < want {
				lagging = id
				break
			}
		}
		if lagging == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard: quiesce timed out waiting for %s", lagging)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// AdvanceClock moves the lease clock forward (expiring leases when d
// exceeds the remaining TTL).
func (c *Cluster) AdvanceClock(d time.Duration) {
	c.clockOff.Add(int64(d))
}

// Step runs one controller round: ensure a leader (electing across
// controllers as needed — the mid-campaign failover path), and step it.
// Election retries across abdications (split-brain renewals) until a
// controller both leads and completes the round.
func (c *Cluster) Step(final bool) (StepResult, error) {
	var lastErr error
	for attempt := 0; attempt < 4*(len(c.ctrls)+1); attempt++ {
		ct := c.leader()
		if ct == nil {
			lastErr = ErrNotLeader
			continue
		}
		res, err := ct.Step(final)
		// Membership can change inside a step (drain, evict): refresh the
		// ingest route snapshot before anything else routes.
		c.setRoute(ct.Ring())
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrNotLeader) {
			return res, err
		}
		lastErr = err
	}
	return StepResult{}, fmt.Errorf("shard: no controller could complete the round: %w", lastErr)
}

// leader returns a leading controller, electing one if none leads.
// Election order rotates from the last active controller so a failover
// lands on a standby.
func (c *Cluster) leader() *Controller {
	c.mu.Lock()
	start := c.active
	c.mu.Unlock()
	n := len(c.ctrls)
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if c.dead[idx] {
			continue
		}
		ct := c.ctrls[idx]
		if ct.Leading() {
			c.setActive(idx)
			return ct
		}
	}
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if c.dead[idx] {
			continue
		}
		ct := c.ctrls[idx]
		if ct.TryLead() == nil {
			c.setActive(idx)
			return ct
		}
	}
	return nil
}

func (c *Cluster) setActive(idx int) {
	c.mu.Lock()
	c.active = idx
	c.mu.Unlock()
}

// KillController crashes the active controller: it is removed from
// rotation without releasing its lease (a crash, not a clean shutdown),
// and the lease clock jumps past the TTL so the next Step's election
// succeeds. Returns the killed controller's id.
func (c *Cluster) KillController() string {
	c.mu.Lock()
	idx := c.active
	c.dead[idx] = true
	c.mu.Unlock()
	ttl := c.cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	c.AdvanceClock(ttl + time.Second)
	return c.ctrls[idx].cfg.ID
}

// KillShard permanently crashes a shard node.
func (c *Cluster) KillShard(id string) {
	if n := c.nodes[id]; n != nil {
		n.Crash()
	}
}

// Isolate switches a permanent network partition for a shard on or off.
func (c *Cluster) Isolate(id string, on bool) {
	c.transport.Isolate(id, on)
}

// Dropped returns how many events the injector dropped before routing.
func (c *Cluster) Dropped() int64 { return c.dropped.Load() }

// Close stops every controller and node.
func (c *Cluster) Close() {
	for _, ct := range c.ctrls {
		ct.Stop()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}
