package shard

import (
	"errors"
	"fmt"
	"sync"

	"spooftrack/internal/fault"
)

// Transport carries the controller's three RPCs to a shard node by id.
// Implementations: LocalTransport (in-process, with injected partition
// faults — the chaos harness), HTTPTransport (multi-process, JSON over
// HTTP — spooftrackd's -controller).
type Transport interface {
	Collect(node string, req CollectRequest) (CollectResponse, error)
	Apply(node string, u EpochUpdate) (ApplyResponse, error)
	Hello(node string, req HelloRequest) (HelloResponse, error)
}

// Retryable reports whether an RPC error is worth another attempt: term
// fencing is permanent, everything else (partitions, crashes, transport
// failures) re-rolls.
func Retryable(err error) bool {
	return err != nil && !errors.Is(err, ErrStaleTerm)
}

// LocalTransport is the in-process transport: nodes registered by id,
// RPCs delivered as method calls, with the fault injector deciding
// per-edge per-attempt partitions and an explicit isolation switch for
// permanent netsplits. It is the chaos harness's network.
type LocalTransport struct {
	mu       sync.Mutex
	nodes    map[string]*Node
	inj      *fault.Injector
	isolated map[string]bool
	attempts map[string]int
}

// NewLocalTransport builds an in-process transport. inj may be nil (no
// injected partitions).
func NewLocalTransport(inj *fault.Injector) *LocalTransport {
	return &LocalTransport{
		nodes:    make(map[string]*Node),
		inj:      inj,
		isolated: make(map[string]bool),
		attempts: make(map[string]int),
	}
}

// Register adds a node to the transport.
func (t *LocalTransport) Register(n *Node) {
	t.mu.Lock()
	t.nodes[n.ID()] = n
	t.mu.Unlock()
}

// Isolate switches a permanent partition for the node on or off — the
// injected-probability partitions heal on retry; this one does not
// until switched back.
func (t *LocalTransport) Isolate(node string, on bool) {
	t.mu.Lock()
	t.isolated[node] = on
	t.mu.Unlock()
}

// edge resolves the node and rolls this attempt's partition fault.
func (t *LocalTransport) edge(node string) (*Node, error) {
	t.mu.Lock()
	n := t.nodes[node]
	iso := t.isolated[node]
	t.attempts[node]++
	attempt := t.attempts[node]
	inj := t.inj
	t.mu.Unlock()
	if n == nil {
		return nil, fmt.Errorf("%w: %s not registered", ErrUnavailable, node)
	}
	if iso {
		return nil, fmt.Errorf("%w: %s isolated", ErrPartitioned, node)
	}
	if inj != nil && inj.Partitioned("controller", node, attempt) {
		return nil, fmt.Errorf("%w: controller->%s attempt %d", ErrPartitioned, node, attempt)
	}
	return n, nil
}

// Collect implements Transport.
func (t *LocalTransport) Collect(node string, req CollectRequest) (CollectResponse, error) {
	n, err := t.edge(node)
	if err != nil {
		return CollectResponse{}, err
	}
	return n.HandleCollect(req)
}

// Apply implements Transport.
func (t *LocalTransport) Apply(node string, u EpochUpdate) (ApplyResponse, error) {
	n, err := t.edge(node)
	if err != nil {
		return ApplyResponse{}, err
	}
	return n.HandleApply(u)
}

// Hello implements Transport.
func (t *LocalTransport) Hello(node string, req HelloRequest) (HelloResponse, error) {
	n, err := t.edge(node)
	if err != nil {
		return HelloResponse{}, err
	}
	return n.HandleHello(req)
}
