package shard

import (
	"sort"

	"spooftrack/internal/stats"
)

// Ring is an immutable consistent-hash ring mapping true source ASNs to
// ingest shard ids. Border taps know the true source AS of every tapped
// packet (amp.Event.TrueSrcAS), so hashing on it keeps each source's
// entire event stream on one shard — per-source counters never split
// across nodes, and removing a shard re-homes only the sources it
// owned. Immutability makes membership changes race-free by
// construction: the controller publishes a new ring (Without) instead
// of mutating the old one under readers.
type Ring struct {
	ids    []string
	points []ringPoint
	// tab quantizes the ring into 2^ringTableBits equal hash buckets,
	// each pre-resolved to its successor point's owner, so the packet
	// path pays one hash and one table index instead of a binary search.
	// Ownership is bucket-granular but still consistent: a bucket's
	// owner changes only when the point it resolved to leaves the ring.
	tab []int32
}

// ringTableBits sizes the owner lookup table (4096 buckets: 32 KiB,
// fine-grained enough that every virtual node owns buckets at any
// realistic shard count).
const ringTableBits = 12

type ringPoint struct {
	hash uint64
	idx  int // into ids
}

// DefaultRingReplicas is the number of virtual nodes per shard —
// enough that removing one shard spreads its range across all
// survivors instead of dumping it on one neighbor.
const DefaultRingReplicas = 64

// NewRing builds a ring over the given shard ids, DefaultRingReplicas
// virtual nodes each. Duplicate ids are rejected by collapsing: the
// ids slice is deduplicated and sorted, so rings built from the same
// member set are identical regardless of order.
func NewRing(ids []string) *Ring {
	seen := make(map[string]bool, len(ids))
	uniq := make([]string, 0, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	sort.Strings(uniq)
	r := &Ring{ids: uniq, points: make([]ringPoint, 0, len(uniq)*DefaultRingReplicas)}
	for i, id := range uniq {
		for v := 0; v < DefaultRingReplicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(id, uint64(v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		return r.ids[pa.idx] < r.ids[pb.idx]
	})
	if len(r.points) > 0 {
		r.tab = make([]int32, 1<<ringTableBits)
		for j := range r.tab {
			h := uint64(j) << (64 - ringTableBits)
			i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
			if i == len(r.points) {
				i = 0
			}
			r.tab[j] = int32(r.points[i].idx)
		}
	}
	return r
}

// ringHash is FNV-1a 64 over the id bytes, salted per virtual node with
// a SplitMix64 finalizer so adjacent vnode indexes decorrelate.
func ringHash(id string, salt uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return stats.Mix64(h ^ salt*0x9e3779b97f4a7c15)
}

// OwnerIndex returns the owning shard's index into Members() order
// (sorted ids), or -1 on an empty ring. This is the ingest fast path:
// one hash, one table load, no string handling.
func (r *Ring) OwnerIndex(as uint32) int {
	if r == nil || len(r.tab) == 0 {
		return -1
	}
	h := ringHash("", uint64(as)|1<<40)
	return int(r.tab[h>>(64-ringTableBits)])
}

// Without returns a new ring with the shard removed — the re-hash step
// when a shard is drained or evicted. Removing an absent id returns an
// equivalent ring.
func (r *Ring) Without(id string) *Ring {
	kept := make([]string, 0, len(r.ids))
	for _, m := range r.ids {
		if m != id {
			kept = append(kept, m)
		}
	}
	return NewRing(kept)
}

// Members returns the shard ids on the ring, sorted.
func (r *Ring) Members() []string {
	return append([]string(nil), r.ids...)
}
