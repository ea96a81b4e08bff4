package stream

import "fmt"

// Harvest is one relay pipeline's round-counter snapshot: the per-link
// packet/byte counters accumulated since the last epoch advance, tagged
// with the epoch they accumulated under. Harvesting does not consume
// the counters — the controller may collect the same epoch repeatedly
// (retries, failover re-collection) and only AdvanceEpoch resets them —
// so the snapshot a fold acts on is exactly the one that was collected.
type Harvest struct {
	Epoch      int64   `json:"epoch"`
	Pkts       []int64 `json:"pkts"`
	Bytes      []int64 `json:"bytes"`
	Total      int64   `json:"total"`
	TotalBytes int64   `json:"total_bytes"`
	Settled    int64   `json:"settled"`
	Degraded   bool    `json:"degraded"`
	Dropped    int64   `json:"dropped"`
}

// HarvestRound snapshots the current round's counters (relay mode: the
// sharded-ingest controller's Collect RPC lands here).
func (p *Pipeline) HarvestRound() Harvest {
	p.mu.Lock()
	st := &p.st
	h := Harvest{
		Epoch:      st.epoch,
		Pkts:       append([]int64(nil), st.roundPkts...),
		Bytes:      append([]int64(nil), st.roundBytes...),
		Total:      st.total,
		TotalBytes: st.totalBytes,
		Settled:    st.settled,
	}
	p.mu.Unlock()
	h.Degraded = p.degraded.Load()
	h.Dropped = p.droppedN.Load()
	return h
}

// Epoch returns the epoch the pipeline is currently accumulating under.
func (p *Pipeline) Epoch() int64 { return p.epoch.Load() }

// AdvanceEpoch adopts a controller-decided epoch and configuration
// (relay mode: the sharded-ingest controller's Apply RPC lands here).
// It resets the round counters, bumps the epoch — invalidating worker
// batches accumulated under the old one, exactly like a local fold —
// arms the settle window, and deploys the configuration when it
// changed. Re-applying the pipeline's current (epoch, config) is an
// idempotent no-op, so a controller recovering from failover can
// re-broadcast its snapshot safely; an epoch older than the pipeline's
// is rejected (a stale controller must not rewind the shard).
func (p *Pipeline) AdvanceEpoch(epoch int64, cfgIdx int) error {
	if cfgIdx < 0 || cfgIdx >= len(p.attr.Catchments) {
		return fmt.Errorf("stream: advance to config %d out of range", cfgIdx)
	}
	p.mu.Lock()
	st := &p.st
	if epoch < st.epoch {
		cur := st.epoch
		p.mu.Unlock()
		return fmt.Errorf("stream: stale epoch %d (pipeline at %d)", epoch, cur)
	}
	if epoch == st.epoch && cfgIdx == st.eval.current {
		p.mu.Unlock()
		return nil
	}
	changed := cfgIdx != st.eval.current
	if changed {
		st.eval.deploy(cfgIdx)
	}
	p.advanceLocked(epoch, changed)
	p.mu.Unlock()
	if changed {
		p.deploy(cfgIdx)
	}
	return nil
}
