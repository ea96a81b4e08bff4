package shard

import "spooftrack/internal/stats"

// Ring is the controller's live membership: the shard ids, sorted. It is
// immutable, so a membership change publishes a new Ring and readers
// hold a snapshot without a lock. Any shard may count any event (the
// controller only sums per-link counters), so routing needs no
// consistent hashing: an event's owner is its flow key spread evenly
// over the members.
type Ring struct {
	ids []string
}

// OwnerIndex returns the index into the sorted ids of the shard that
// counts events with the given flow key (amp.Event.FlowKey), or -1 for
// an empty membership.
func (r *Ring) OwnerIndex(key uint32) int { return ownerOf(key, len(r.ids)) }

// ownerOf range-reduces the remixed key over n members by multiply-shift.
// The remix keeps the pick independent of the low bits an intake picks
// its counter shard by (stream.shardOf).
func ownerOf(key uint32, n int) int {
	if n == 0 {
		return -1
	}
	return int((stats.Mix64(uint64(key)) >> 32) * uint64(n) >> 32)
}
