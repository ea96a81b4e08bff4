package bgp

import (
	"encoding/binary"
	"hash"
	"slices"
)

// Seams for the external bgp_test package, whose campaign golden needs
// sched (which imports bgp) and so cannot live in package bgp.

// InternetWorldForTest is internetWorldForTest for external tests.
var InternetWorldForTest = internetWorldForTest

// IsBase is isBase for external tests.
var IsBase = isBase

// HoldsRunnerUps reports whether o still carries its runner-ups, the
// state a delta seed needs.
func HoldsRunnerUps(o *Outcome) bool { return o.second != nil }

// NewOutcomeCacheCap returns an empty cache bounded at capacity seeds.
func NewOutcomeCacheCap(capacity int) *OutcomeCache {
	c := NewOutcomeCache()
	c.cap = capacity
	return c
}

// Resident lists the cache's seeds in admission order, oldest first.
func (c *OutcomeCache) Resident() []*Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.seeds)
}

// HashSelections folds the outcome's converged flag and every AS's
// selected route — class, announcement index, AS-path length, next hop
// and tiebreak priority — into h. Runner-ups are left out: they are an
// upper bound the delta path may carry rather than recompute, so they can
// legitimately differ between a full and an incremental run.
func HashSelections(h hash.Hash64, o *Outcome) {
	var buf [15]byte
	if o.converged {
		buf[0] = 1
	}
	h.Write(buf[:1])
	for _, s := range o.sel {
		// The goldens were recorded with a 16-byte selection: ann in 16
		// bits, pri in 32, and noRoute's pri at 1<<30.
		pri := int32(s.pri)
		if s.pri == noRoute.pri {
			pri = 1 << 30
		}
		buf[0] = byte(s.class)
		binary.LittleEndian.PutUint16(buf[1:], uint16(s.ann))
		binary.LittleEndian.PutUint32(buf[3:], uint32(s.pathLen))
		binary.LittleEndian.PutUint32(buf[7:], uint32(s.nextHop))
		binary.LittleEndian.PutUint32(buf[11:], uint32(pri))
		h.Write(buf[:])
	}
}
