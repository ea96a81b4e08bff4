package shard

import (
	"fmt"
	"sync"

	"spooftrack/internal/amp"
	"spooftrack/internal/stream"
)

// NodeConfig builds one ingest shard.
type NodeConfig struct {
	// ID is the shard's cluster-unique id, its key in the controller's
	// membership (Ring).
	ID string
	// Attr is the shared attribution matrix — identical on every node
	// and on the controller.
	Attr stream.Attribution
	// Pipe tunes the wrapped intake: Workers, Settle, Deploy and
	// Metrics. A shard never folds, so the decide-side fields (Eval,
	// MinRoundPackets, Ledger) are not consulted: the controller that
	// folds its rounds takes them (ClusterConfig hands it Pipe's).
	Pipe stream.Config
	// Ready is the membership gate the controller polls on every
	// collect: false asks to be drained. Wire it to
	// watch.Watchdog.ReadyFunc (the /readyz + SLO signal). nil = always
	// ready.
	Ready func() bool
}

// Node is one ingest shard: a stream.Intake plus the RPC surface the
// controller drives (collect / apply / hello) with lease-term fencing.
type Node struct {
	id     string
	intake *stream.Intake
	ready  func() bool

	mu   sync.Mutex
	term uint64 // highest lease term seen; lower terms are rejected
	// last is the last update applied, valid when hasLast. Its slices
	// are the controller's append-only history, shared, never edited.
	last    EpochUpdate
	hasLast bool
}

// NewNode builds a shard node around a new intake; it starts no
// goroutine.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("shard: node needs an ID")
	}
	in, err := stream.NewIntake(cfg.Attr, cfg.Pipe)
	if err != nil {
		return nil, fmt.Errorf("shard: node %s: %w", cfg.ID, err)
	}
	return &Node{id: cfg.ID, intake: in, ready: cfg.Ready}, nil
}

// ID returns the shard id.
func (n *Node) ID() string { return n.id }

// Intake exposes the wrapped intake (accounting, status).
func (n *Node) Intake() *stream.Intake { return n.intake }

// Ingest feeds one event into the shard's intake; it reports false once
// the node is closed.
func (n *Node) Ingest(ev amp.Event) bool { return n.intake.Ingest(ev) }

// Close drains and stops the intake.
func (n *Node) Close() { n.intake.Close() }

// isReady evaluates the membership gate.
func (n *Node) isReady() bool {
	if n.ready == nil {
		return true
	}
	return n.ready()
}

// fence admits an RPC: terms below the highest seen are rejected and
// higher ones adopted.
func (n *Node) fence(term uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if term < n.term {
		return fmt.Errorf("%w: node %s saw term %d, got %d", ErrStaleTerm, n.id, n.term, term)
	}
	n.term = term
	return nil
}

// HandleCollect serves the controller's counter collection.
func (n *Node) HandleCollect(req CollectRequest) (CollectResponse, error) {
	if err := n.fence(req.Term); err != nil {
		return CollectResponse{}, err
	}
	return CollectResponse{
		Node:    n.id,
		Harvest: n.intake.HarvestRound(),
		Ready:   n.isReady(),
	}, nil
}

// HandleApply adopts a controller epoch update: reset round counters,
// bump the epoch, deploy the configuration, and remember the update for
// failover recovery.
func (n *Node) HandleApply(u EpochUpdate) (ApplyResponse, error) {
	if err := n.fence(u.Term); err != nil {
		return ApplyResponse{}, err
	}
	if err := n.intake.AdvanceEpoch(u.Epoch, u.Config); err != nil {
		return ApplyResponse{}, fmt.Errorf("shard: node %s: %w", n.id, err)
	}
	n.mu.Lock()
	n.last, n.hasLast = u, true
	n.mu.Unlock()
	return ApplyResponse{Node: n.id, Epoch: u.Epoch}, nil
}

// HandleHello serves failover recovery: the shard's last applied update.
func (n *Node) HandleHello(req HelloRequest) (HelloResponse, error) {
	if err := n.fence(req.Term); err != nil {
		return HelloResponse{}, err
	}
	resp := HelloResponse{Node: n.id, Ready: n.isReady(), Epoch: n.intake.Epoch()}
	n.mu.Lock()
	resp.HasUpdate, resp.Update = n.hasLast, n.last
	n.mu.Unlock()
	return resp, nil
}
