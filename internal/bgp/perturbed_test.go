package bgp

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"spooftrack/internal/stats"
)

// perturbedGolden is the FNV-64a digest of a drifted engine's policy
// draws and of its outcomes over a random configuration corpus. It was
// recorded while tiebreak priorities still lived in per-AS rows beside
// the graph's adjacency, and pins that Perturbed redraws the same ASes'
// rows from the same RNG sequence.
const perturbedGolden = 0xf1f090209424ce3

// TestPerturbedDigest drifts an engine the way the staleness study
// (experiments.ExtStaleness) does — 5 % of ASes, seed+1 — and digests
// the clone's pinned neighbors, length-blind bits and tiebreak rows
// together with every outcome it propagates.
func TestPerturbedDigest(t *testing.T) {
	g, o := worldForTest(t, 66, 2000)
	e := newEngine(t, g, o, DefaultParams(66))
	drift, err := e.Perturbed(0.05, 67)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	hashPolicy(h, drift)
	rng := stats.NewRNG(4242)
	for trial := 0; trial < 30; trial++ {
		HashSelections(h, propagate(t, drift, randomConfig(rng, g, o)))
	}
	if got := h.Sum64(); got != perturbedGolden {
		t.Errorf("perturbed digest %#x, golden %#x", got, uint64(perturbedGolden))
	}
}

// hashPolicy folds an engine's per-AS policy draws into h: the pinned
// neighbor, the length-blind bit and the tiebreak priority of every
// neighbor in adjacency order.
func hashPolicy(h hash.Hash64, e *Engine) {
	var buf [4]byte
	for i := 0; i < e.g.NumASes(); i++ {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(e.pinned[i])))
		h.Write(buf[:])
		if e.lengthBlind[i] {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		for _, nb := range e.row(i) {
			binary.LittleEndian.PutUint32(buf[:], uint32(int32(nb.pri)))
			h.Write(buf[:])
		}
	}
}
