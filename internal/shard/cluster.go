package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/fault"
	"spooftrack/internal/stream"
)

// ClusterConfig builds an in-process sharded-ingest cluster: N intake
// nodes, a LocalTransport network (with injected faults), a MemLease
// election substrate on a controllable clock, and 1+standbys
// controllers competing for it. It is both the chaos harness and the
// single-process deployment mode of cmd/spooftrackd. Its nodes have no
// readiness gate, and its controllers retry and evict on the fixed
// rpcAttempts and evictAfter budgets.
type ClusterConfig struct {
	// Shards is the node count (>= 1).
	Shards int
	// Attr is the shared attribution matrix.
	Attr stream.Attribution
	// MinRoundPackets gates the controllers' folds (see
	// ControllerConfig.MinRoundPackets); Pipe.MinRoundPackets is not
	// consulted.
	MinRoundPackets int64
	// Pipe is the loop's configuration, as a single-node pipeline would
	// take it: the nodes count with its intake half (see
	// NodeConfig.Pipe), and the controllers decide with Pipe.Eval and
	// record to Pipe.Ledger.
	Pipe stream.Config
	// Injector drives event drops, RPC partitions and split-brain lease
	// flaps. Nil = fault-free.
	Injector *fault.Injector
}

// Cluster wires nodes, transport, lease, and controllers together and
// drives them in rounds: Ingest routes each event by what the border
// sees of it (amp.Event.FlowKey) to one live member, Step runs one
// controller round (electing a leader as needed), and the Kill*/Isolate
// hooks inject the permanent failures the chaos suite asserts against.
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

	// Ingest fast path: an immutable route snapshot (the live nodes in
	// member order, refreshed after every controller step, when
	// membership can change) keeps the sharded ingest path lock-free and
	// string-free. Each intake counts what it accepts under its own
	// shard lock; dropped counts what no intake took.
	route   atomic.Pointer[[]*Node]
	dropped atomic.Int64

	mu     sync.Mutex
	active int
}

// standbys is how many extra controllers wait on the lease.
const standbys = 1

// NewCluster builds and starts the cluster (nodes running, no leader
// elected yet — the first Step elects one).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("shard: cluster needs at least one shard")
	}
	c := &Cluster{
		cfg:       cfg,
		nodes:     make(map[string]*Node),
		transport: NewLocalTransport(cfg.Injector),
		lease:     NewMemLease(),
		clockBase: time.Unix(1700000000, 0),
	}
	c.lease.SetClock(func() time.Time { return c.clockBase.Add(time.Duration(c.clockOff.Load())) })
	if cfg.Injector != nil {
		c.lease.SetInjector(cfg.Injector)
	}
	for i := 0; i < cfg.Shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		n, err := NewNode(NodeConfig{ID: id, Attr: cfg.Attr, Pipe: cfg.Pipe})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes[id] = n
		c.order = append(c.order, id)
		c.transport.Register(n)
	}
	for i := 0; i < 1+standbys; i++ {
		ct, err := NewController(ControllerConfig{
			ID:              fmt.Sprintf("ctrl-%d", i),
			Attr:            cfg.Attr,
			Eval:            cfg.Pipe.Eval,
			MinRoundPackets: cfg.MinRoundPackets,
			Members:         c.order,
			Transport:       c.transport,
			Lease:           c.lease,
			Ledger:          cfg.Pipe.Ledger,
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

// setRoute publishes the live nodes of ring as the routing snapshot.
func (c *Cluster) setRoute(ring *Ring) {
	nodes := make([]*Node, len(ring.ids))
	for i, id := range ring.ids {
		nodes[i] = c.nodes[id]
	}
	c.route.Store(&nodes)
}

// Controller returns the currently active (or most recently active)
// controller.
func (c *Cluster) Controller() *Controller {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrls[c.active]
}

// Ingest routes one event: the injector's drop roll first (so the drop
// schedule is identical at every shard count), then to the live member
// its flow key picks (Ring.OwnerIndex). The path is lock-free. An event
// no intake takes, because the injector dropped it, every member was
// evicted or its owner is closed, counts in Dropped.
func (c *Cluster) Ingest(ev amp.Event) bool {
	if c.cfg.Injector == nil || !c.cfg.Injector.DropEvent() {
		nodes := *c.route.Load()
		if i := ownerOf(ev.FlowKey(), len(nodes)); i >= 0 && nodes[i].Ingest(ev) {
			return true
		}
	}
	c.dropped.Add(1)
	return false
}

// Quiesce does nothing and returns nil: an intake's round holds every
// event Ingest accepted as soon as Ingest returns, so a following Step
// collects a complete, deterministic round without it. It stays for the
// benchmark's round driver, its only caller outside tests.
func (c *Cluster) Quiesce(time.Duration) error { return nil }

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
	c.AdvanceClock(LeaseTTL + time.Second)
	return c.ctrls[idx].cfg.ID
}

// Isolate switches a permanent network partition for a shard on or off.
func (c *Cluster) Isolate(id string, on bool) {
	c.transport.Isolate(id, on)
}

// Dropped returns how many offered events no intake counted: dropped by
// the injector, offered with no live member, or refused by a closed
// owner.
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
