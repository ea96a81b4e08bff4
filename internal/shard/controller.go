package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"spooftrack/internal/fault"
	"spooftrack/internal/provenance"
	"spooftrack/internal/report"
	"spooftrack/internal/stream"
)

// ControllerConfig builds the merge-and-decide controller.
type ControllerConfig struct {
	// ID identifies this controller instance in lease and ledger records.
	ID string
	// Attr is the shared attribution matrix (identical on every node).
	Attr stream.Attribution
	// Eval is the decide half — the same EvalParams a single-node
	// pipeline folds with, callbacks included, which is the
	// byte-identical contract.
	Eval stream.EvalParams
	// MinRoundPackets gates folding a merged round (default
	// stream.DefaultMinRoundPackets, as for a pipeline).
	MinRoundPackets int64
	// Members are the initial shard ids.
	Members []string
	// Transport carries the RPCs; Lease elects the leader.
	Transport Transport
	Lease     LeaseStore
	// Ledger records rounds, reconfigurations, verdicts, membership and
	// failover transitions. Nil is provenance-off.
	Ledger *provenance.Ledger
	// Sleep overrides backoff sleeping (tests).
	Sleep func(time.Duration)
}

// LeaseTTL is the leadership lease duration: a Step renews it, a
// refused renewal abdicates, and a crashed leader's standby acquires it
// once it lapses.
const LeaseTTL = 2 * time.Second

// drainAfter is how many consecutive not-ready rounds drain a shard.
const drainAfter = 2

// evictAfter is how many consecutive failed-collect rounds evict a
// shard.
const evictAfter = 3

// rpcAttempts is how many times an RPC is tried; the waits between tries
// follow rpcRetry's fixed schedule.
const rpcAttempts = 8

func (c *ControllerConfig) setDefaults() {
	if c.MinRoundPackets <= 0 {
		c.MinRoundPackets = stream.DefaultMinRoundPackets
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
}

// rpcRetry is the schedule every RPC is retried on: ct.attempts tries,
// 1ms doubling to 100ms between them. It has no jitter: the fault
// injector's per-attempt rolls decorrelate retries, and a chaos run's
// RPC timeline stays reproducible.
func (ct *Controller) rpcRetry() fault.Retry {
	return fault.Retry{MaxAttempts: ct.attempts, BaseBackoff: time.Millisecond, MaxBackoff: 100 * time.Millisecond}
}

// StepResult reports what one controller round did.
type StepResult struct {
	// Folded: a complete merged round was folded into the evaluator.
	Folded bool
	// Skipped: every shard answered but the merged round was below
	// MinRoundPackets; counters keep accumulating.
	Skipped bool
	// Deferred: at least one shard's collect failed past the retry
	// budget; nothing was folded and nothing was lost — counters keep
	// accumulating under the old epoch and the next complete collect
	// includes them.
	Deferred bool
	// Discarded: a shard was evicted and the partial round it took with
	// it was discarded entirely (epoch advanced without folding) — the
	// explicit data-loss event that latches the degraded flag.
	Discarded bool
	// Epoch after the step; Outcome is valid when Folded.
	Epoch   int64
	Outcome stream.Outcome
}

// MemberStatus is one shard's membership state for /cluster.
type MemberStatus struct {
	ID string `json:"id"`
	// State is "live", "drained", or "evicted".
	State string `json:"state"`
	// NotReady / Failed are the consecutive-round streak counters behind
	// drain and evict decisions.
	NotReady int `json:"not_ready,omitempty"`
	Failed   int `json:"failed,omitempty"`
}

// ClusterStatus is the controller's point-in-time view, shaped for the
// daemon's /cluster endpoint.
type ClusterStatus struct {
	Leader          string         `json:"leader"`
	Leading         bool           `json:"leading"`
	Term            uint64         `json:"term"`
	Epoch           int64          `json:"epoch"`
	Rounds          int            `json:"rounds"`
	DeferredRounds  int64          `json:"deferred_rounds"`
	DiscardedRounds int64          `json:"discarded_rounds"`
	Degraded        bool           `json:"degraded"`
	Converged       bool           `json:"converged"`
	CurrentConfig   int            `json:"current_config"`
	DeployedConfigs []int          `json:"deployed_configs"`
	NumClusters     int            `json:"num_clusters"`
	Candidates      int            `json:"candidates"`
	Members         []MemberStatus `json:"members"`
}

// Controller is the lease-elected merge-and-decide loop: collect every
// live shard's counters, merge, fold through the shared
// stream.Evaluator, broadcast the next epoch, and manage membership
// (drain on SLO breach, evict on unreachability) — with every
// transition fenced by the lease term and recorded in the ledger.
type Controller struct {
	cfg ControllerConfig
	// attempts and evictAt are rpcAttempts and evictAfter; this
	// package's tests lower or raise them before the first RPC.
	attempts, evictAt int

	mu        sync.Mutex
	leading   bool
	term      uint64
	epoch     int64
	eval      *stream.Evaluator
	members   *Ring // live; replaced, never mutated
	drained   []string
	evicted   []string
	notReady  map[string]int
	failed    map[string]int
	degraded  bool
	frozen    bool
	deferred  int64
	discarded int64
	opened    bool
}

// NewController validates the configuration and builds a follower: the
// owner drives it round by round — TryLead while not Leading, else Step.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("shard: controller needs an ID")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("shard: controller needs members")
	}
	if cfg.Transport == nil || cfg.Lease == nil {
		return nil, fmt.Errorf("shard: controller needs a transport and a lease store")
	}
	if len(cfg.Attr.Catchments) == 0 || cfg.Attr.NumLinks <= 0 {
		return nil, fmt.Errorf("shard: controller needs a populated attribution matrix")
	}
	cfg.setDefaults()
	members := slices.Clone(cfg.Members)
	sort.Strings(members)
	for i := 1; i < len(members); i++ {
		if members[i] == members[i-1] {
			return nil, fmt.Errorf("shard: member %q listed twice", members[i])
		}
	}
	ct := &Controller{
		cfg:      cfg,
		attempts: rpcAttempts,
		evictAt:  evictAfter,
		eval:     stream.NewEvaluator(cfg.Attr, cfg.Eval),
		members:  &Ring{ids: members},
		notReady: make(map[string]int),
		failed:   make(map[string]int),
	}
	return ct, nil
}

// Leading reports whether this controller currently believes it holds
// the lease.
func (ct *Controller) Leading() bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.leading
}

// Degraded reports the explicit coarsening latch: true once any round
// data was permanently lost to a shard eviction.
func (ct *Controller) Degraded() bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.degraded
}

// Evaluator exposes the controller's attribution state (read-only).
func (ct *Controller) Evaluator() *stream.Evaluator {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.eval
}

// Evidence is the controller's verdict as an operator report
// (stream.Evaluator.Evidence).
func (ct *Controller) Evidence() (*report.Report, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.eval.Evidence()
}

// Ring returns the live membership (ingest routing).
func (ct *Controller) Ring() *Ring {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.members
}

// TryLead attempts to acquire the leadership lease and, on success,
// runs failover recovery: Hello every member, restore the evaluator
// from the highest-epoch snapshot any shard holds (deterministic replay
// through stream.RestoreEvaluator), adopt its membership, and
// re-broadcast at the new term so every shard is fenced and current.
func (ct *Controller) TryLead() error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.leading {
		return nil
	}
	lease, ok := ct.cfg.Lease.Acquire(ct.cfg.ID, LeaseTTL)
	if !ok {
		return fmt.Errorf("%w: lease held by %s at term %d", ErrNotLeader, lease.Holder, lease.Term)
	}
	ct.term = lease.Term
	ct.leading = true
	led := ct.cfg.Ledger
	led.RecordFailover(provenance.FailoverEvent{
		Action: "elect", Leader: ct.cfg.ID, Term: ct.term, Epoch: ct.epoch,
	})
	ct.recoverLocked()
	return nil
}

// recoverLocked restores cluster state after election.
func (ct *Controller) recoverLocked() {
	led := ct.cfg.Ledger
	var best *EpochUpdate
	for _, m := range ct.members.ids {
		var resp HelloResponse
		err := ct.retryLocked("hello", m, func() (err error) {
			resp, err = ct.cfg.Transport.Hello(m, HelloRequest{Term: ct.term, Leader: ct.cfg.ID})
			return err
		})
		if err != nil {
			continue
		}
		if resp.HasUpdate && (best == nil || resp.Update.Epoch > best.Epoch) {
			u := resp.Update
			best = &u
		}
	}
	if best != nil && best.Epoch >= ct.epoch && len(best.Snapshot.Deployed) > 0 {
		eval, err := stream.RestoreEvaluator(ct.cfg.Attr, ct.cfg.Eval, best.Snapshot)
		if err == nil {
			ct.eval = eval
			ct.epoch = best.Epoch
			ct.degraded = ct.degraded || best.Degraded
			ct.frozen = ct.frozen || best.Degraded
			ct.adoptMembersLocked(best.Members)
			led.RecordFailover(provenance.FailoverEvent{
				Action: "recover", Leader: ct.cfg.ID, Term: ct.term,
				Epoch: ct.epoch, Rounds: eval.Rounds(),
			})
			// Re-broadcast at our term: fences every shard and brings
			// laggards (shards that missed the dead leader's last apply)
			// up to the recovered epoch.
			ct.broadcastLocked(ct.mkUpdateLocked())
			return
		}
		led.RecordFailover(provenance.FailoverEvent{
			Action: "recover", Leader: ct.cfg.ID, Term: ct.term,
			Epoch: ct.epoch, Reason: fmt.Sprintf("snapshot rejected: %v", err),
		})
	}
	// Fresh cluster (no shard has applied an epoch yet): open the
	// provenance chain through the call stream.New opens it with, so the
	// merged loop's ledger replays with provenance.Replay unchanged.
	if !ct.opened && led.Enabled() {
		ct.eval.OpenLedger(led)
		for _, m := range ct.members.ids {
			led.RecordMembership(provenance.MembershipEvent{
				Node: m, Action: "join", Epoch: ct.epoch, Term: ct.term,
			})
		}
	}
	ct.opened = true
}

// adoptMembersLocked replaces the live membership (failover recovery:
// the recovered update's member list already excludes drained/evicted
// shards).
func (ct *Controller) adoptMembersLocked(members []string) {
	if len(members) == 0 {
		return
	}
	ms := slices.Clone(members)
	sort.Strings(ms)
	ct.members = &Ring{ids: ms}
}

// abdicateLocked steps down after a refused renewal or a fencing error.
func (ct *Controller) abdicateLocked(reason string) {
	if !ct.leading {
		return
	}
	ct.leading = false
	ct.cfg.Ledger.RecordFailover(provenance.FailoverEvent{
		Action: "abdicate", Leader: ct.cfg.ID, Term: ct.term,
		Epoch: ct.epoch, Reason: reason,
	})
}

// Step runs one controller round: renew the lease, collect every live
// shard (retry/backoff, epoch re-apply), merge, fold, broadcast the
// next epoch, and apply pending membership transitions. Returns
// ErrNotLeader when not (or no longer) holding the lease.
func (ct *Controller) Step(final bool) (StepResult, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.stepLocked(final)
}

func (ct *Controller) stepLocked(final bool) (StepResult, error) {
	if !ct.leading {
		return StepResult{}, ErrNotLeader
	}
	if !ct.cfg.Lease.Renew(ct.cfg.ID, ct.term, LeaseTTL) {
		ct.abdicateLocked("lease renewal refused")
		return StepResult{}, ErrNotLeader
	}
	led := ct.cfg.Ledger
	res := StepResult{Epoch: ct.epoch}

	// Collect phase: deterministic member order, full retry budget per
	// shard, lagging shards re-applied and re-collected.
	merged := make([]int64, ct.cfg.Attr.NumLinks)
	ready := make(map[string]bool, len(ct.members.ids))
	var failedNodes []string
	for _, m := range ct.members.ids {
		resp, err := ct.collectLocked(m)
		if err != nil {
			if errors.Is(err, ErrStaleTerm) {
				ct.abdicateLocked(err.Error())
				return StepResult{}, ErrNotLeader
			}
			failedNodes = append(failedNodes, m)
			continue
		}
		ready[m] = resp.Ready
		for l, n := range resp.Harvest.Pkts {
			if l < len(merged) {
				merged[l] += n
			}
		}
	}

	if len(failedNodes) > 0 {
		// Defer: nothing folds, nothing is lost — unreachable shards
		// keep their counters and the next complete collect includes
		// them. Only when a shard exhausts its failure budget is it
		// evicted, and only then is the partial round discarded.
		ct.deferred++
		res.Deferred = true
		evictedNow := false
		for _, m := range failedNodes {
			ct.failed[m]++
			if ct.failed[m] >= ct.evictAt {
				ct.evictLocked(m, "collect retries exhausted")
				evictedNow = true
			}
		}
		if evictedNow {
			// The evicted shard's uncollected counters are gone: the
			// round cannot be completed, so it is discarded entirely —
			// the epoch advances without folding, survivors reset, and
			// the degraded latch plus reconfiguration freeze make the
			// continued localization a provable coarsening (a
			// refinement prefix) of the fault-free run.
			ct.degraded = true
			ct.frozen = true
			ct.discarded++
			led.RecordDegrade(provenance.DegradeEvent{
				Config: ct.eval.Current(), Phase: "shard-round",
				Error: fmt.Sprintf("round discarded: evicted %v", failedNodes),
			})
			ct.epoch++
			ct.broadcastLocked(ct.mkUpdateLocked())
			res.Discarded = true
			res.Epoch = ct.epoch
		}
		return res, nil
	}
	for _, m := range ct.members.ids {
		ct.failed[m] = 0
	}
	ct.updateReadyLocked(ready)

	total := int64(0)
	for _, n := range merged {
		total += n
	}
	// The final (shutdown) round passes the same gate: a tail too small
	// to fold would eliminate every source it did not happen to carry.
	if total < ct.cfg.MinRoundPackets {
		res.Skipped = true
		return res, nil
	}

	// Fold, decide and record through the shared evaluator — the same
	// call, with the same inputs, a single-node pipeline makes.
	out := ct.eval.Fold(led, merged, final || ct.frozen)
	res.Folded = true
	res.Outcome = out

	// Advance and broadcast: every live shard resets its round counters
	// and deploys the (possibly new) configuration. A shard that misses
	// the apply is re-applied at the next collect.
	ct.epoch++
	ct.broadcastLocked(ct.mkUpdateLocked())
	res.Epoch = ct.epoch

	// Drains execute only at fold boundaries: the drained shard's
	// counters were just folded and reset, so routing its events to the
	// survivors loses nothing.
	for _, m := range ct.members.ids {
		if ct.notReady[m] >= drainAfter {
			ct.drainLocked(m, "readiness gate breached")
		}
	}
	return res, nil
}

// errLagging marks a collect that found the shard behind the
// controller's epoch: retryable, the shard was just re-applied.
var errLagging = errors.New("shard: lagging epoch")

// retryLocked runs one RPC to shard m on the retry schedule: call is
// tried until it succeeds, fails with a non-retryable error (returned as
// is), or the attempt budget is spent.
func (ct *Controller) retryLocked(op, m string, call func() error) error {
	tries, err := ct.rpcRetry().Do(context.TODO(), 0, ct.cfg.Sleep,
		func(int) error { return call() },
		func(_ int, err error) bool { return Retryable(err) })
	if err == nil || !Retryable(err) {
		return err
	}
	return fmt.Errorf("shard: %s %s exhausted %d attempts: %w", op, m, tries, err)
}

// collectLocked runs one shard's collect with the full retry budget.
func (ct *Controller) collectLocked(m string) (CollectResponse, error) {
	var resp CollectResponse
	err := ct.retryLocked("collect", m, func() error {
		r, err := ct.cfg.Transport.Collect(m, CollectRequest{Term: ct.term, Epoch: ct.epoch})
		switch {
		case err != nil:
			return err
		case r.Harvest.Epoch == ct.epoch:
			resp = r
			return nil
		case r.Harvest.Epoch < ct.epoch:
			// Lagging shard (missed an apply): bring it to the current
			// epoch, then re-collect.
			if _, err := ct.cfg.Transport.Apply(m, ct.mkUpdateLocked()); err != nil {
				return err
			}
			return errLagging
		default:
			// A shard ahead of us means a newer controller advanced it:
			// our lease is gone even if we have not noticed yet.
			return fmt.Errorf("%w: shard %s at epoch %d, controller at %d",
				ErrStaleTerm, m, r.Harvest.Epoch, ct.epoch)
		}
	})
	return resp, err
}

// broadcastLocked applies an epoch update to every live member with
// retries; failures are tolerated (the shard is re-applied at its next
// collect, or eventually evicted).
func (ct *Controller) broadcastLocked(u EpochUpdate) {
	for _, m := range ct.members.ids {
		_ = ct.retryLocked("apply", m, func() error {
			_, err := ct.cfg.Transport.Apply(m, u)
			return err
		})
	}
}

// mkUpdateLocked snapshots the controller into an EpochUpdate.
func (ct *Controller) mkUpdateLocked() EpochUpdate {
	return EpochUpdate{
		Term:     ct.term,
		Epoch:    ct.epoch,
		Config:   ct.eval.Current(),
		Members:  slices.Clone(ct.members.ids),
		Snapshot: ct.eval.Snapshot(),
		Degraded: ct.degraded,
	}
}

// updateReadyLocked advances the consecutive not-ready streaks.
func (ct *Controller) updateReadyLocked(ready map[string]bool) {
	for _, m := range ct.members.ids {
		if ok, seen := ready[m]; seen && !ok {
			ct.notReady[m]++
		} else {
			ct.notReady[m] = 0
		}
	}
}

// drainLocked removes an SLO-breaching but reachable shard: its final
// round was already folded, so routing its events to the survivors
// loses no data.
func (ct *Controller) drainLocked(m string, reason string) {
	ct.removeMemberLocked(m)
	ct.drained = append(ct.drained, m)
	ct.cfg.Ledger.RecordMembership(provenance.MembershipEvent{
		Node: m, Action: "drain", Epoch: ct.epoch, Term: ct.term, Reason: reason,
	})
}

// evictLocked removes an unreachable shard.
func (ct *Controller) evictLocked(m string, reason string) {
	ct.removeMemberLocked(m)
	ct.evicted = append(ct.evicted, m)
	slog.Info("shard evicted", "member", m, "term", ct.term, "epoch", ct.epoch, "reason", reason)
	ct.cfg.Ledger.RecordMembership(provenance.MembershipEvent{
		Node: m, Action: "evict", Epoch: ct.epoch, Term: ct.term, Reason: reason,
	})
}

func (ct *Controller) removeMemberLocked(m string) {
	kept := slices.DeleteFunc(slices.Clone(ct.members.ids), func(x string) bool { return x == m })
	ct.members = &Ring{ids: kept}
	delete(ct.notReady, m)
	delete(ct.failed, m)
}

// Status snapshots the cluster for the daemon's /cluster endpoint.
func (ct *Controller) Status() ClusterStatus {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	s := ClusterStatus{
		Leader:          ct.cfg.ID,
		Leading:         ct.leading,
		Term:            ct.term,
		Epoch:           ct.epoch,
		Rounds:          ct.eval.Rounds(),
		DeferredRounds:  ct.deferred,
		DiscardedRounds: ct.discarded,
		Degraded:        ct.degraded,
		Converged:       ct.eval.Converged(),
		CurrentConfig:   ct.eval.Current(),
		DeployedConfigs: ct.eval.Deployed(),
		NumClusters:     ct.eval.NumClusters(),
		Candidates:      len(ct.eval.Candidates()),
	}
	for _, m := range ct.members.ids {
		s.Members = append(s.Members, MemberStatus{
			ID: m, State: "live", NotReady: ct.notReady[m], Failed: ct.failed[m],
		})
	}
	for _, m := range ct.drained {
		s.Members = append(s.Members, MemberStatus{ID: m, State: "drained"})
	}
	for _, m := range ct.evicted {
		s.Members = append(s.Members, MemberStatus{ID: m, State: "evicted"})
	}
	sort.Slice(s.Members, func(i, j int) bool { return s.Members[i].ID < s.Members[j].ID })
	return s
}

// Stop releases the lease if held, so a replacement elects immediately
// instead of waiting out the TTL.
func (ct *Controller) Stop() {
	ct.mu.Lock()
	if ct.leading {
		ct.cfg.Lease.Release(ct.cfg.ID, ct.term)
		ct.leading = false
	}
	ct.mu.Unlock()
}
