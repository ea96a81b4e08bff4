// Package shard is the horizontally sharded ingest tier: N shard nodes
// — each wrapping a stream.Intake, the count half of the loop, and each
// owning the events whose flow key (amp.Event.FlowKey, what the border
// sees of a packet) hashes to it — feed one lease-elected controller
// that merges per-shard link counters into the same greedy
// reconfiguration loop a stream.Pipeline runs (stream.Evaluator, the
// decide half) and broadcasts catchment-table epochs back out.
//
// The design leans on three invariants:
//
//  1. Counters are integers and collection is non-consuming. A shard's
//     HarvestRound snapshots its round counters without resetting them;
//     only an epoch advance (the controller's Apply broadcast) resets.
//     Integer sums are order-independent, so however collects,
//     retries, and re-collections interleave, the merged round the
//     controller folds is exactly the multiset of events the shards
//     admitted — which is what makes localization byte-identical to a
//     single-node run at any shard count.
//
//  2. Epochs gate everything and terms fence everyone. An intake's
//     counter shards hold only the current epoch's round: AdvanceEpoch
//     zeroes them and books what the round held past its last harvest
//     as settle-excluded, so no count crosses an epoch; a shard
//     collected at the wrong epoch is re-applied and re-collected; an
//     RPC from a controller whose lease term is below the highest a
//     shard has seen is rejected outright (ErrStaleTerm), so a deposed
//     controller cannot rewind the tier.
//
//  3. Failure is explicit, never silent. A round the controller cannot
//     collect completely is deferred, not folded partially — events
//     keep accumulating under the old epoch and the next complete
//     collect includes them. A shard lost permanently is evicted: its
//     uncollected counters are the only data loss, the controller
//     latches a degraded flag, freezes further reconfiguration, and the
//     surviving partition is provably a coarsening (a refinement
//     prefix) of the fault-free run — the same contract
//     a retrying core.RunCampaign gives the offline campaign.
package shard

import (
	"errors"

	"spooftrack/internal/stream"
)

// ErrStaleTerm rejects an RPC from a controller whose lease term is
// below the highest term the receiving shard has observed — the fencing
// that makes split-brain a clean abdication instead of two live
// controllers. Not retryable.
var ErrStaleTerm = errors.New("shard: stale controller term")

// ErrUnavailable marks a node that is not answering at all (crashed or
// unregistered). Retryable — the retry budget decides when it becomes a
// round failure.
var ErrUnavailable = errors.New("shard: node unavailable")

// ErrPartitioned marks a transient injected network partition on an RPC
// edge. Retryable: every attempt re-rolls, so backoff heals it.
var ErrPartitioned = errors.New("shard: rpc partitioned")

// ErrNotLeader is returned by Controller.Step when the caller does not
// currently hold the leadership lease (never led, or just abdicated).
var ErrNotLeader = errors.New("shard: not the lease holder")

// CollectRequest asks a shard for its current round-counter snapshot.
type CollectRequest struct {
	// Term is the controller's lease term (fenced).
	Term uint64 `json:"term"`
	// Epoch is the epoch the controller believes the shard accumulates
	// under; the response carries the shard's actual epoch so the
	// controller can re-apply a lagging shard.
	Epoch int64 `json:"epoch"`
}

// CollectResponse is a shard's harvest plus its membership signals.
type CollectResponse struct {
	Node    string         `json:"node"`
	Harvest stream.Harvest `json:"harvest"`
	// Ready is the shard's membership gate (/readyz + SLO rules): false
	// means the shard asks to be drained — it is still reachable and its
	// counters are still collected, so draining loses nothing.
	Ready bool `json:"ready"`
}

// EpochUpdate is the controller's broadcast: the new epoch, the
// configuration to deploy, the live membership, and the controller's
// full evaluator snapshot. Shards store the last update they applied
// and return it from Hello, which is the failover recovery protocol: a
// newly elected controller restores the highest-epoch snapshot any
// shard holds and replays it through stream.RestoreEvaluator — state
// recovery is deterministic refolding, not trust in a dead leader.
type EpochUpdate struct {
	Term     uint64              `json:"term"`
	Epoch    int64               `json:"epoch"`
	Config   int                 `json:"config"`
	Members  []string            `json:"members"`
	Snapshot stream.EvalSnapshot `json:"snapshot"`
	// Degraded is the controller's explicit coarsening latch: true once
	// any round data was permanently lost (shard eviction).
	Degraded bool `json:"degraded,omitempty"`
}

// ApplyResponse acknowledges an EpochUpdate.
type ApplyResponse struct {
	Node  string `json:"node"`
	Epoch int64  `json:"epoch"`
}

// HelloRequest introduces a (possibly newly elected) controller.
type HelloRequest struct {
	Term   uint64 `json:"term"`
	Leader string `json:"leader"`
}

// HelloResponse reports the shard's last applied update for failover
// recovery.
type HelloResponse struct {
	Node      string      `json:"node"`
	Ready     bool        `json:"ready"`
	Epoch     int64       `json:"epoch"`
	HasUpdate bool        `json:"has_update"`
	Update    EpochUpdate `json:"update,omitempty"`
}
