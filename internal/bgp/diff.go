package bgp

import (
	"spooftrack/internal/topo"
)

// AnnChange classifies how one peering link's announcement differs
// between two configurations. The delta propagator (delta.go) keys its
// seeding strategy on this classification.
type AnnChange int8

const (
	// AnnUnchanged: the announcement is identical on both sides; every
	// route derived from it carries over verbatim.
	AnnUnchanged AnnChange = iota
	// AnnShifted: same link and communities, but prepend depth or the
	// poison list differ. Routes carry over with their AS-path length
	// shifted by a constant; only ASes the shift (or a poison toggle)
	// could flip need re-evaluation.
	AnnShifted
	// AnnReplaced: the link announces on both sides but the community
	// set changed. Export behaviour along the catchment is reshaped, so
	// old routes are withdrawn and the catchment rebuilt from the
	// provider.
	AnnReplaced
	// AnnAdded: the link announces only in the new configuration.
	AnnAdded
	// AnnRemoved: the link announces only in the previous configuration;
	// its routes are withdrawn.
	AnnRemoved
)

// ConfigDiff is the structured difference between a previous and a new
// announcement configuration, matched per peering link (configurations
// hold at most one announcement per link). It drives PropagateDeltaInfo's
// frontier seeding and is also a cheap standalone answer to "what
// changed between consecutive campaign configs".
type ConfigDiff struct {
	// Same is true when the two configurations are routing-identical:
	// every link carries the same announcement on both sides (the
	// announcement slices may still be ordered differently).
	Same bool
	// Identity is true when Same holds and announcement i of the
	// previous configuration is announcement i of the new one — the
	// previous outcome's selection array can be copied verbatim.
	Identity bool

	// PrevChange[ai] / NewChange[ai] classify each announcement of the
	// previous / new configuration. PrevChange never contains AnnAdded;
	// NewChange never contains AnnRemoved.
	PrevChange []AnnChange
	NewChange  []AnnChange

	// PrevToNew[ai] maps a previous announcement index to the index of
	// its carried counterpart in the new configuration (AnnUnchanged or
	// AnnShifted), or -1 (AnnRemoved / AnnReplaced: routes withdrawn).
	PrevToNew []int16

	// LenShift[ai], for a previous announcement classified AnnShifted,
	// is new.PathLen() - prev.PathLen(): the constant every carried
	// route's AS-path length moves by.
	LenShift []int32

	// PoisonTouched lists, per previous announcement index, the ASNs
	// poisoned on exactly one side of a shifted announcement (added or
	// removed poisons). Their loop-prevention status flipped, so they
	// are seeded regardless of catchment membership.
	PoisonTouched [][]topo.ASN

	// NumDirty counts previous announcements whose routes cannot carry
	// unchanged (shifted, replaced, or removed) plus added new
	// announcements — a quick "how much changed" scalar.
	NumDirty int
}

// reset overwrites d with the difference from prev to next, reusing d's
// slices where they are large enough: PropagateDeltaInfo keeps one diff
// in its pooled scratch, so a warm delta step diffs without allocating.
// A zero d gets fresh slices, so a diff into one shares no memory.
func (d *ConfigDiff) reset(prev, next Config) {
	np := len(prev.Anns)
	d.PrevChange = resized(d.PrevChange, np)
	d.NewChange = resized(d.NewChange, len(next.Anns))
	d.PrevToNew = resized(d.PrevToNew, np)
	d.LenShift = resized(d.LenShift, np)
	d.PoisonTouched = resized(d.PoisonTouched, np)
	d.NumDirty = 0
	// A new announcement no previous one matches stays AnnAdded.
	for ni := range d.NewChange {
		d.NewChange[ni] = AnnAdded
	}
	// Configurations carry a handful of announcements (one per platform
	// link), so a linear link match beats building maps.
	newByLink := func(l LinkID) int {
		for i := range next.Anns {
			if next.Anns[i].Link == l {
				return i
			}
		}
		return -1
	}
	identity := np == len(next.Anns)
	same := identity
	for ai := range prev.Anns {
		pa := &prev.Anns[ai]
		d.LenShift[ai] = 0
		d.PoisonTouched[ai] = d.PoisonTouched[ai][:0]
		ni := newByLink(pa.Link)
		if ni < 0 {
			d.PrevChange[ai] = AnnRemoved
			d.PrevToNew[ai] = -1
			d.NumDirty++
			same, identity = false, false
			continue
		}
		if ni != ai {
			identity = false
		}
		na := &next.Anns[ni]
		switch {
		case annEqual(pa, na):
			d.PrevChange[ai] = AnnUnchanged
			d.NewChange[ni] = AnnUnchanged
			d.PrevToNew[ai] = int16(ni)
		case communitiesEqual(pa.Communities, na.Communities):
			d.PrevChange[ai] = AnnShifted
			d.NewChange[ni] = AnnShifted
			d.PrevToNew[ai] = int16(ni)
			d.LenShift[ai] = int32(na.PathLen()) - int32(pa.PathLen())
			d.PoisonTouched[ai] = appendPoisonSymmetricDiff(d.PoisonTouched[ai], pa.Poison, na.Poison)
			d.NumDirty++
			same, identity = false, false
		default:
			d.PrevChange[ai] = AnnReplaced
			d.NewChange[ni] = AnnReplaced
			d.PrevToNew[ai] = -1
			d.NumDirty++
			same, identity = false, false
		}
	}
	for _, c := range d.NewChange {
		if c == AnnAdded {
			d.NumDirty++
			same, identity = false, false
		}
	}
	d.Same = same
	d.Identity = identity
}

// resized returns s with length n, reusing its backing array when it is
// large enough. The elements are left as they were; callers overwrite
// them.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// annEqual reports whether two announcements are routing-identical:
// same link, prepend depth, poison list, and communities. Poison order
// is compared exactly — a reorder yields an AnnShifted with LenShift 0
// and no touched poisons, which the delta path treats as free.
func annEqual(a, b *Announcement) bool {
	if a.Link != b.Link || a.Prepend != b.Prepend || len(a.Poison) != len(b.Poison) {
		return false
	}
	for i := range a.Poison {
		if a.Poison[i] != b.Poison[i] {
			return false
		}
	}
	return communitiesEqual(a.Communities, b.Communities)
}

func communitiesEqual(a, b []Community) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Delta-seed cost weights (deltaCost). The unit is one poison-toggled
// AS, which the delta path re-decides alone; the others stand for how
// much of a catchment a change wakes.
const (
	// costAdded: a new announcement grows one catchment outward from its
	// provider, and only over ASes the new route beats.
	costAdded = 1
	// costLonger: lengthening re-decides the members whose runner-up now
	// wins.
	costLonger = 4
	// costRederive: withdrawing, changing communities or shortening
	// re-derives a whole catchment or re-offers it to every neighbor.
	costRederive = 8
)

// deltaCost ranks how expensive PropagateDeltaInfo is from prev's
// outcome to next, for choosing a delta seed: 0 when the two are
// routing-identical, otherwise the weighted sum of per-announcement
// changes. Unlike ConfigDiff.NumDirty it is asymmetric — adding an
// announcement is cheap, withdrawing one is not — and it allocates
// nothing, so a cache can score every resident outcome on a miss.
func deltaCost(prev, next Config) int {
	cost, matched := 0, 0
	for pi := range prev.Anns {
		pa := &prev.Anns[pi]
		var na *Announcement
		for ni := range next.Anns {
			if next.Anns[ni].Link == pa.Link {
				na = &next.Anns[ni]
				break
			}
		}
		if na == nil {
			cost += costRederive
			continue
		}
		matched++
		switch {
		case !communitiesEqual(pa.Communities, na.Communities), na.PathLen() < pa.PathLen():
			cost += costRederive
		case na.PathLen() > pa.PathLen():
			cost += costLonger + poisonToggles(pa.Poison, na.Poison)
		default:
			cost += poisonToggles(pa.Poison, na.Poison)
		}
	}
	return cost + (len(next.Anns)-matched)*costAdded
}

// appendPoisonSymmetricDiff appends to the empty slice out the ASNs
// present in exactly one of the two poison lists (duplicates collapse).
// Poison lists are tiny (the platform allows 2 per announcement), so
// quadratic scans are fine.
func appendPoisonSymmetricDiff(out, a, b []topo.ASN) []topo.ASN {
	for _, v := range a {
		if !containsASN(b, v) && !containsASN(out, v) {
			out = append(out, v)
		}
	}
	for _, v := range b {
		if !containsASN(a, v) && !containsASN(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// poisonToggles is len(appendPoisonSymmetricDiff(nil, a, b)) without
// allocating.
func poisonToggles(a, b []topo.ASN) int {
	n := 0
	for i, v := range a {
		if !containsASN(a[:i], v) && !containsASN(b, v) {
			n++
		}
	}
	for i, v := range b {
		if !containsASN(b[:i], v) && !containsASN(a, v) {
			n++
		}
	}
	return n
}

func containsASN(xs []topo.ASN, v topo.ASN) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
